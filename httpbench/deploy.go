package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/shard"
)

// deployment is one running service on a loopback listener, built the way
// inkserve builds it: inkstream.New + server.New + SetJournal(OpenWAL) for
// a single engine, shard.New with greedy partitioning and filtered
// exchange for a router. The drift auditor and the black box stay off.
//
// Disk flush latency is out of scope. The benchmark may only write inside
// its checkout, and on the 2-vCPU VM with a shared virtual disk it was
// tuned on, fsync p50 swung 90–141µs between consecutive seconds; with
// fsync on, crowd's throughput swung 2.2k–6k changes/s within one run,
// which no regression bound can resolve. So the single engine journals
// through persist.WAL's encoding and buffered file writes but skips the
// per-commit flush+fsync (unsyncedWAL), and the router runs without its
// per-shard WALs, which it always fsyncs.
type deployment struct {
	addr   string         // host:port of the loopback listener
	srv    *server.Server // single engine only
	rt     *shard.Router  // router only
	wal    unsyncedWAL
	hs     *http.Server
	served chan error
}

// deploy builds a deployment over a private clone of the inputs' graph; a
// single engine journals to wal, which must not exist yet. The returned
// duration runs from handing the graph, features and model to the
// constructors until the listener accepts connections; the clone is not
// in it. tr, when non-nil, wraps the journal and the handler with the
// traced run's instrumentation.
func deploy(w workload, in *inputs, wal string, tr *tracer) (*deployment, time.Duration, error) {
	g := in.g.Clone()
	d := &deployment{served: make(chan error, 1)}
	t0 := time.Now()
	var h http.Handler
	if w.shards > 1 {
		rt, err := shard.New(in.model, g, in.x, shard.Config{
			Shards:            w.shards,
			PartitionStrategy: "greedy",
		})
		if err != nil {
			return nil, 0, err
		}
		if tr != nil {
			rt.SetRoundProfiling(roundRing)
		}
		d.rt, h = rt, rt.Handler()
	} else {
		var counters metrics.Counters
		eng, err := inkstream.New(in.model, g, in.x, &counters, inkstream.Options{})
		if err != nil {
			return nil, 0, err
		}
		d.srv = server.New(eng, &counters)
		log, err := persist.OpenWAL(wal)
		if err != nil {
			d.srv.Close()
			return nil, 0, err
		}
		d.wal = unsyncedWAL{log}
		var j server.BatchJournal = d.wal
		if tr != nil {
			j = tr.wrapJournal(d.wal)
		}
		d.srv.SetJournal(j)
		h = d.srv.Handler()
	}
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeService()
		return nil, 0, err
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.served <- d.hs.Serve(ln) }()
	setup := time.Since(t0)
	d.addr = ln.Addr().String()
	return d, setup, nil
}

// roundRing is the round-profile ring of a traced router deployment, large
// enough to hold every round of a pass (scatter ran about a thousand rounds
// a second), so the shard timings cover the same window as the shard
// counts. Untraced deployments keep the router's default ring.
const roundRing = 1 << 18

// close stops the listener (waiting for in-flight handlers), then the
// service's pipeline, then its journal.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.closeService(); err == nil {
		err = cerr
	}
	return err
}

func (d *deployment) closeService() error {
	if d.rt != nil {
		return d.rt.Close()
	}
	d.srv.Close()
	if err := d.wal.Close(); err != nil {
		return fmt.Errorf("closing WAL: %w", err)
	}
	return nil
}

// unsyncedWAL is a server.BatchJournal over persist.WAL that never calls
// WAL.Commit: records go through the WAL's encoding and buffered writes to
// its file, but no group commit flushes or fsyncs them (see deployment).
type unsyncedWAL struct{ *persist.WAL }

func (u unsyncedWAL) Append(d graph.Delta, v []inkstream.VertexUpdate) error {
	return u.AppendBuffered(d, v)
}

func (u unsyncedWAL) Commit() error { return nil }
