package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/server"
)

const (
	kindWrite = 1
	kindRead  = 2
)

// reqSpans holds one request's timestamps in nanoseconds since the
// tracer's epoch (0 = not reached). They bound consecutive spans:
//
//	client   clientStart → clientEnd      (parent of everything below)
//	http     client minus handler         (transport, JSON framing, scheduling)
//	handler  handlerStart → handlerEnd
//	  queue          handlerStart → appendStart
//	  append         appendStart → commitStart (its record and those behind it in the group)
//	  commit         commitStart → commitEnd   (the group commit; no fsync, see unsyncedWAL)
//	  commit_to_ack  commitEnd → handlerEnd    (coalesce, apply, publish, ack)
//
// Fields are atomic because the client, the handler and the journal stage
// write them from different goroutines.
type reqSpans struct {
	kind                     atomic.Int32
	clientStart, clientEnd   atomic.Int64
	handlerStart, handlerEnd atomic.Int64
	appendStart              atomic.Int64
	commitStart, commitEnd   atomic.Int64
}

const (
	chunkBits = 12
	maxChunks = 1 << 12 // 16M traced requests per pass
)

type spanChunk [1 << chunkBits]reqSpans

// commitRec is one group commit seen by the traced journal.
type commitRec struct {
	start, end int64 // ns since epoch
	records    int
	appendNS   int64 // time spent in the group's AppendBuffered calls
}

// tracer is the traced run's instrumentation, all of it in the benchmark's
// own code around calls into the program's public API: spans kept in
// memory keyed by request sequence number, a handler middleware and a
// timing journal wrapper. Nothing is written out until the run ends.
type tracer struct {
	epoch  time.Time
	seq    atomic.Uint64
	chunks [maxChunks]atomic.Pointer[spanChunk]

	mu       sync.Mutex
	inflight map[uint64]uint64 // delta key → sequence number of the request carrying it

	// Journal-stage state: touched only by the server's journal goroutine
	// while serving and read after the server has closed.
	pending   []uint64
	groupRecs int
	groupApp  int64
	commits   []commitRec
	unmatched int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: make(map[uint64]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// spans returns seq's record, allocating its chunk on first use; nil when
// seq is 0 or beyond capacity.
func (t *tracer) spans(seq uint64) *reqSpans {
	if seq == 0 {
		return nil
	}
	c := seq >> chunkBits
	if c >= maxChunks {
		return nil
	}
	ch := t.chunks[c].Load()
	if ch == nil {
		t.chunks[c].CompareAndSwap(nil, new(spanChunk))
		ch = t.chunks[c].Load()
	}
	return &ch[seq&(1<<chunkBits-1)]
}

// begin opens a request's parent span. A write registers its delta key so
// the journal wrapper can find the request its Append belongs to.
func (t *tracer) begin(kind int32, key uint64, start time.Time) uint64 {
	seq := t.seq.Add(1)
	sp := t.spans(seq)
	if sp == nil {
		return 0
	}
	sp.kind.Store(kind)
	sp.clientStart.Store(t.at(start))
	if kind == kindWrite {
		t.mu.Lock()
		t.inflight[key] = seq
		t.mu.Unlock()
	}
	return seq
}

func (t *tracer) finish(seq uint64, end time.Time) {
	if sp := t.spans(seq); sp != nil {
		sp.clientEnd.Store(t.at(end))
	}
}

// wrapHandler times every handler call that carries a sequence number.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseUint(r.Header.Get(seqHeader), 10, 64) // absent header: untraced request
		sp := t.spans(seq)
		if sp != nil {
			sp.handlerStart.Store(t.now())
		}
		h.ServeHTTP(w, r)
		if sp != nil {
			sp.handlerEnd.Store(t.now())
		}
	})
}

// tracedJournal is a server.BatchJournal around the deployment's journal
// that timestamps each request's append and its group commit. It matches
// an append to its request by delta content (deltaKey).
type tracedJournal struct {
	t   *tracer
	wal server.BatchJournal
}

func (t *tracer) wrapJournal(wal server.BatchJournal) *tracedJournal {
	return &tracedJournal{t: t, wal: wal}
}

func (j *tracedJournal) Append(d graph.Delta, v []inkstream.VertexUpdate) error {
	if err := j.AppendBuffered(d, v); err != nil {
		return err
	}
	return j.Commit()
}

func (j *tracedJournal) AppendBuffered(d graph.Delta, v []inkstream.VertexUpdate) error {
	t := j.t
	t0 := t.now()
	err := j.wal.AppendBuffered(d, v)
	t1 := t.now()
	t.groupRecs++
	t.groupApp += t1 - t0
	var seq uint64
	if len(d) > 0 {
		key := deltaKey(d)
		t.mu.Lock()
		seq = t.inflight[key]
		delete(t.inflight, key)
		t.mu.Unlock()
	}
	if sp := t.spans(seq); sp != nil {
		sp.appendStart.Store(t0)
		t.pending = append(t.pending, seq)
	} else {
		t.unmatched++
	}
	return err
}

func (j *tracedJournal) Commit() error {
	t := j.t
	t0 := t.now()
	err := j.wal.Commit()
	t1 := t.now()
	for _, seq := range t.pending {
		sp := t.spans(seq)
		sp.commitStart.Store(t0)
		sp.commitEnd.Store(t1)
	}
	t.commits = append(t.commits, commitRec{start: t0, end: t1, records: t.groupRecs, appendNS: t.groupApp})
	t.pending, t.groupRecs, t.groupApp = t.pending[:0], 0, 0
	return err
}

// spanBreakdown is the traced pass's server/persist attribution over the
// measured window.
type spanBreakdown struct {
	writes, matched, negative int
	clientUS, httpUS, queueUS float64 // means over matched writes
	appendUS, commitUS, c2aUS float64
	httpAllUS                 float64 // mean over every window write with a handler span
	reads                     int
	readHandlerUS             float64
	commitsInWindow           int
	recordsPerCommit          float64
	busyFrac                  float64
}

// breakdown reduces the stored spans of requests started at or after
// windowStart (ns since epoch).
func (t *tracer) breakdown(windowStart int64, elapsed time.Duration) spanBreakdown {
	var b spanBreakdown
	var httpAll float64
	n := t.seq.Load()
	for seq := uint64(1); seq <= n; seq++ {
		sp := t.spans(seq)
		if sp == nil {
			break
		}
		cS, cE := sp.clientStart.Load(), sp.clientEnd.Load()
		hS, hE := sp.handlerStart.Load(), sp.handlerEnd.Load()
		if cS < windowStart || cE == 0 || hE == 0 {
			continue
		}
		if sp.kind.Load() == kindRead {
			b.reads++
			b.readHandlerUS += float64(hE - hS)
			continue
		}
		b.writes++
		httpAll += float64((cE - cS) - (hE - hS))
		aS, cmS, cmE := sp.appendStart.Load(), sp.commitStart.Load(), sp.commitEnd.Load()
		if aS == 0 || cmE == 0 {
			continue
		}
		b.matched++
		parts := []int64{hS - cS, aS - hS, cmS - aS, cmE - cmS, hE - cmE, cE - hE}
		for _, p := range parts {
			if p < 0 {
				b.negative++
				break
			}
		}
		b.clientUS += float64(cE - cS)
		b.httpUS += float64((cE - cS) - (hE - hS))
		b.queueUS += float64(aS - hS)
		b.appendUS += float64(cmS - aS)
		b.commitUS += float64(cmE - cmS)
		b.c2aUS += float64(hE - cmE)
	}
	if b.matched > 0 {
		m := float64(b.matched) * 1e3
		b.clientUS /= m
		b.httpUS /= m
		b.queueUS /= m
		b.appendUS /= m
		b.commitUS /= m
		b.c2aUS /= m
	}
	if b.writes > 0 {
		b.httpAllUS = httpAll / float64(b.writes) / 1e3
	}
	if b.reads > 0 {
		b.readHandlerUS /= float64(b.reads) * 1e3
	}
	var recs int
	var busy int64
	for _, c := range t.commits {
		if c.start < windowStart {
			continue
		}
		b.commitsInWindow++
		recs += c.records
		busy += c.appendNS + (c.end - c.start)
	}
	if b.commitsInWindow > 0 {
		b.recordsPerCommit = float64(recs) / float64(b.commitsInWindow)
	}
	if elapsed > 0 {
		b.busyFrac = float64(busy) / float64(elapsed)
	}
	return b
}

// writeSpans dumps every stored request as one JSON line: its sequence
// number, kind and named spans as [start, end] in ns since the epoch, each
// child naming its parent.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type span struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	n := t.seq.Load()
	enc := json.NewEncoder(w)
	for seq := uint64(1); seq <= n; seq++ {
		sp := t.spans(seq)
		if sp == nil {
			break
		}
		kind := "write"
		if sp.kind.Load() == kindRead {
			kind = "read"
		}
		spans := []span{{"client", "", sp.clientStart.Load(), sp.clientEnd.Load()}}
		if hS := sp.handlerStart.Load(); hS != 0 {
			hE := sp.handlerEnd.Load()
			spans = append(spans, span{"handler", "client", hS, hE})
			if aS, cmS, cmE := sp.appendStart.Load(), sp.commitStart.Load(), sp.commitEnd.Load(); aS != 0 && cmE != 0 {
				spans = append(spans,
					span{"queue", "handler", hS, aS},
					span{"append", "handler", aS, cmS},
					span{"commit", "handler", cmS, cmE},
					span{"commit_to_ack", "handler", cmE, hE})
			}
		}
		if err := enc.Encode(struct {
			Seq   uint64 `json:"seq"`
			Kind  string `json:"kind"`
			Spans []span `json:"spans"`
		}{seq, kind, spans}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
