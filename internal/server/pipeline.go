package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrServerClosed is returned for mutations submitted after (or racing
// with) Close.
var ErrServerClosed = errors.New("server: closed")

// maxGroup bounds how many queued requests one group commit may cover:
// large enough to amortise the fsync under load, small enough to bound
// the latency any single request waits behind the group.
const maxGroup = 128

// updateReq is one unit of work travelling the single-writer pipeline.
// Exactly one of (delta/vups) or op is used: ordinary mutations carry the
// batch and are journaled, while op requests (e.g. /v1/verify) run
// exclusively on the apply stage without touching the journal.
type updateReq struct {
	delta graph.Delta
	vups  []inkstream.VertexUpdate
	op    func() error
	err   error
	done  chan error

	// Flight-recorder state (flight.go): id 0 means tracing is disabled for
	// this request. Marks are cumulative offsets from start, each written by
	// the one pipeline goroutine owning the request at that stage.
	id      uint64
	start   time.Time
	kind    string
	sampled bool
	fused   int
	marks   [obs.StageCount]time.Duration
	eng     *obs.Trace
}

// Apply submits one update batch into the single-writer pipeline and waits
// until it is durable (when a journal is configured) and applied, with the
// resulting snapshot published. It is the programmatic equivalent of
// POST /v1/update + /v1/features and is safe for any number of concurrent
// callers.
func (s *Server) Apply(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	return s.do(delta, vups, nil)
}

// ApplyAsync submits one update batch into the pipeline without waiting
// for the outcome: the returned channel delivers the single acknowledgement
// (nil on success) once the batch is durable, applied, and covered by a
// published snapshot. It is how a pipelined client keeps several updates in
// flight from one goroutine — the queued-behind-the-in-flight-update regime
// that server-side coalescing fuses. If the server closes before a request
// reaches the apply stage its channel may never receive, so callers that do
// not control the server's lifetime should select against their own
// shutdown signal rather than wait unconditionally.
func (s *Server) ApplyAsync(delta graph.Delta, vups []inkstream.VertexUpdate) (<-chan error, error) {
	r := s.newReq(delta, vups, nil)
	select {
	case <-s.quit:
		return nil, ErrServerClosed
	case s.submitCh <- r:
	}
	s.accepted.Add(1)
	return r.done, nil
}

// do enqueues a request and waits for its outcome.
func (s *Server) do(delta graph.Delta, vups []inkstream.VertexUpdate, op func() error) error {
	r := s.newReq(delta, vups, op)
	select {
	case <-s.quit:
		return ErrServerClosed
	case s.submitCh <- r:
	}
	if op == nil {
		s.accepted.Add(1)
	}
	select {
	case err := <-r.done:
		return err
	case <-s.quit:
		// Shutdown raced the request; it may or may not have been applied.
		return ErrServerClosed
	}
}

// ReadEmbedding resolves one node against the currently published
// snapshot with zero locking. The returned row is immutable (shared with
// the snapshot) and valid indefinitely; epoch is the staleness bound the
// caller may report. ok is false when the node is out of the snapshot's
// range.
func (s *Server) ReadEmbedding(node int) (row tensor.Vector, epoch uint64, ok bool) {
	snap := s.engine.Snapshot()
	s.reads.Add(1)
	if node < 0 || node >= snap.NumNodes() {
		return nil, snap.Epoch, false
	}
	if s.pageStats != nil && s.flight != nil {
		row = s.readTieredRow(snap, node)
	} else {
		row = snap.Row(node)
	}
	if row == nil {
		// Tiered mode only: the row could not be faulted back in (e.g. the
		// spill file is gone). Treated as unavailable, never served torn.
		return nil, snap.Epoch, false
	}
	return row, snap.Epoch, true
}

// readTieredRow reads one row from a tiered snapshot under the flight
// recorder: a read whose page faulted in from the spill file gets a trace
// ID, an exemplar in the page-fault latency histogram, and (when sampled or
// slow) a "read"-kind entry in /v1/traces — so a fat fault bucket resolves
// to a concrete read the same way ack latency resolves to an update.
// Attribution is by miss-count delta around the row fetch, so under
// concurrent faulting reads a trace may adopt a neighbour's fault; the
// linkage is a debugging breadcrumb, not an accounting invariant.
func (s *Server) readTieredRow(snap *inkstream.Snapshot, node int) tensor.Vector {
	f := s.flight
	missesBefore := s.pageStats().Misses
	t0 := time.Now()
	row := snap.Row(node)
	if s.pageStats().Misses == missesBefore {
		return row // served resident: stay off the trace machinery
	}
	d := time.Since(t0)
	id := f.NextID()
	s.pageFaultLat.Exemplar(d.Nanoseconds(), id)
	sampled, slow := f.SampledID(id), f.IsSlow(d)
	if sampled || slow || row == nil {
		t := &obs.ReqTrace{
			ID:      id,
			Kind:    "read",
			Start:   t0,
			Total:   d,
			Sampled: sampled,
			Slow:    slow,
		}
		t.Marks[obs.StageAck] = d
		if row == nil {
			t.Err = "tiered row unavailable (page fault failed)"
		}
		t.GCPause = s.runtime.GCPauseOverlap(t0, t0.Add(d))
		f.Record(t)
	}
	return row
}

// Snapshot returns the currently published embedding snapshot. Safe from
// any goroutine.
func (s *Server) Snapshot() *inkstream.Snapshot { return s.engine.Snapshot() }

// Close stops the pipeline and waits for both stages to exit. Requests
// still in flight are failed with ErrServerClosed rather than drained;
// anything already journaled remains durable and is recovered by WAL
// replay. Reads keep working against the last published snapshot.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		if s.audit.done != nil {
			<-s.audit.done
		}
		if s.sampler != nil {
			s.sampler.Stop()
		}
		// Drain queued incident captures before exit, so an alert or audit
		// failure immediately followed by shutdown still leaves its bundle.
		s.blackbox.Close()
	})
	s.wg.Wait()
}

// start launches the two pipeline stages. Called once from New, after
// every configuration field exists; SetJournal remains "call before
// serving" because the stages read that field unlocked.
func (s *Server) start() {
	s.wg.Add(2)
	go s.journalLoop()
	go s.applyLoop()
}

// journalLoop is stage 1 of the writer pipeline: it drains every request
// queued behind the first one into a group (bounded by maxGroup), makes
// the whole group durable under a single fsync (group commit), and hands
// it to the apply stage. Because applyCh is buffered, the next group's
// encode/append/fsync overlaps the engine compute of the previous one.
func (s *Server) journalLoop() {
	defer s.wg.Done()
	defer close(s.applyCh)
	for {
		var first *updateReq
		select {
		case first = <-s.submitCh:
		case <-s.quit:
			return
		}
		group := append(make([]*updateReq, 0, 8), first)
	drain:
		for len(group) < maxGroup {
			select {
			case r := <-s.submitCh:
				group = append(group, r)
			default:
				break drain
			}
		}
		group = s.journalGroup(group)
		if len(group) == 0 {
			continue
		}
		select {
		case s.applyCh <- group:
		case <-s.quit:
			for _, r := range group {
				s.finish(r, ErrServerClosed)
			}
			return
		}
	}
}

// journalGroup writes every journalable request of the group into the
// journal and commits once. On a journal error the whole group's
// mutations are failed and removed (the engine never sees them): a
// response only ever reports success when the batch is durable. op
// requests pass through untouched. Returns the surviving group.
func (s *Server) journalGroup(group []*updateReq) []*updateReq {
	if s.journal == nil {
		return group
	}
	bj, batched := s.journal.(BatchJournal)
	var jerr error
	journaled := 0
	for _, r := range group {
		if r.op != nil || jerr != nil {
			continue
		}
		if batched {
			jerr = bj.AppendBuffered(r.delta, r.vups)
		} else {
			jerr = s.journal.Append(r.delta, r.vups)
		}
		if jerr == nil {
			journaled++
		}
	}
	if jerr == nil && batched && journaled > 0 {
		jerr = bj.Commit()
	}
	if journaled > 0 && jerr == nil {
		s.gcSize.Observe(int64(journaled))
	}
	if jerr == nil {
		// The group commit covering each journaled request just returned:
		// its durability point.
		for _, r := range group {
			if r.op == nil {
				r.mark(obs.StageJournal)
			}
		}
		return group
	}
	out := group[:0]
	for _, r := range group {
		if r.op != nil {
			out = append(out, r)
			continue
		}
		s.processed.Add(1)
		s.finish(r, fmt.Errorf("journal: %w", jerr))
	}
	return out
}

// applyLoop is stage 2: the only goroutine that ever mutates the engine.
// With coalescing on (the default) it merges each group's compatible
// mutations into fused Engine.Apply calls (coalesce.go), amortising the
// engine's fixed per-batch costs across everything that queued behind the
// in-flight update; with coalescing off it applies each request on its
// own. Either way a snapshot covering a request is published before that
// request is acknowledged — so a successful response implies the served
// snapshot already reflects the update (read-your-writes: the paper's
// "instantaneous" availability).
func (s *Server) applyLoop() {
	defer s.wg.Done()
	f := newFused()
	for group := range s.applyCh {
		if !s.coalesce.Load() {
			s.applySingly(group)
			continue
		}
		s.coalesceGroup(group, f)
		// Drain every group already journaled behind this one into the
		// open batch before flushing. The absorb never waits — it only
		// takes what the journal stage has finished — so it widens the
		// fusion window exactly when requests are queueing faster than
		// the engine applies them, and adds nothing to latency when the
		// pipeline is idle. coalesceGroup's maxGroup bound still flushes
		// oversized batches mid-absorb.
	absorb:
		for {
			select {
			case more, ok := <-s.applyCh:
				if !ok {
					s.flushFused(f)
					return
				}
				if !s.coalesce.Load() {
					s.flushFused(f)
					s.applySingly(more)
					break absorb
				}
				s.coalesceGroup(more, f)
			default:
				break absorb
			}
		}
		s.flushFused(f)
	}
}
