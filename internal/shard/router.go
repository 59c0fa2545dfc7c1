// Package shard implements partitioned multi-engine serving (DESIGN.md
// §11): N independent InkStream engines, each owning a vertex partition,
// fronted by a router that fans mixed update batches out into per-shard
// sub-batches and serves reads from the owning shard's published snapshot.
//
// Partitioning model (RIPPLE-style): vertices are partitioned across
// shards; shard s's engine holds a directed shard graph containing every
// in-arc of every vertex s owns, full-size state matrices whose remote
// message rows are ghost rows, and its own round-aligned WAL. Updates
// execute as BSP rounds in layer lockstep: every shard applies its
// sub-batch, and after each layer every message-change record is delivered,
// in node order, to its producer and to the shards subscribed to its source
// (subscribe.go), which refresh their ghost rows and regenerate the fan-out
// over their own arcs. Because the regenerated per-target event sequence
// equals the single-engine sequence restricted to local targets (in the
// same arrival order), an N-shard deployment is bit-exact against a plain
// engine driven by Apply — for monotonic and accumulative aggregators
// alike, N=1 included.
//
// Pipeline: the router reuses the single-server stages at round
// granularity — submit channel → round formation (server-style coalescing
// with conflict stalls) → per-shard group-committed WAL journaling → BSP
// apply → per-shard snapshot publish → ack. A successful ack means the
// round is durable in every shard's WAL and visible in every shard's
// published snapshot (read-your-writes).
//
// Failure semantics are fail-stop: router-level validation makes shard
// applies infallible, so if one fails anyway the deployment marks itself
// corrupt, rejects further mutations, and keeps serving reads from the
// last published snapshots (DESIGN.md §11.5).
package shard

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/tensor"
)

// ErrRouterClosed is returned for mutations submitted after Close.
var ErrRouterClosed = errors.New("shard: router closed")

// ErrCorrupt is returned for mutations after a shard apply failed; the
// router is fail-stop for writes but keeps serving reads (DESIGN.md §11.5).
var ErrCorrupt = errors.New("shard: deployment corrupt after failed round; writes rejected")

// maxGroup bounds how many queued requests one drain of the submit channel
// considers for round formation — same backstop as the single server's
// group commit.
const maxGroup = 128

// Config tunes a partitioned deployment.
type Config struct {
	// Shards is the number of engine shards (≥ 1).
	Shards int
	// Partition overrides the partitioner entirely (PartitionStrategy is
	// then ignored).
	Partition *graph.Partition
	// PartitionStrategy names the partitioner used when Partition is nil:
	// "hash" (default), "block" or "greedy" (locality-aware streaming
	// greedy, graph.NewGreedyPartition). Resolved over the bootstrap graph
	// via graph.PartitionByStrategy.
	PartitionStrategy string
	// WALDir, when non-empty, enables per-shard write-ahead logging under
	// dir/shard-NNN/wal.log; existing round-aligned WALs are replayed on
	// construction (longest common round prefix).
	WALDir string
	// Opts is applied to every shard engine. Observer and Trace are ignored
	// (they are single-engine serving concerns; the router has its own
	// metrics).
	Opts inkstream.Options
}

// request is one mutation in flight: the expanded (directed) delta, the
// logical change count for the ack body, and the completion channel.
type request struct {
	delta   graph.Delta // directed arcs (undirected edges pre-expanded)
	logical int         // logical changes submitted (for accounting)
	vups    []inkstream.VertexUpdate
	done    chan error
	start   time.Time

	// Flight-recorder identity (flight.go): id 0 means request tracing is
	// off and no stage mark is ever taken. round is the BSP round the
	// request was fused into, joining its trace to /v1/rounds.
	id      uint64
	sampled bool
	kind    string
	round   uint64
	marks   [obs.StageCount]time.Duration
}

// round is one sealed BSP round: the fused requests plus the per-shard
// sub-batches derived from them.
type round struct {
	reqs     []*request
	subDelta []graph.Delta
	subVups  [][]inkstream.VertexUpdate

	// prof is the round's profiler trace (nil with profiling off and for
	// recovery replays); sealed is when the router goroutine handed the
	// round to the apply loop (the queue-wait anchor).
	prof   *obs.RoundTrace
	sealed time.Time
}

// shardState is one engine shard with its private counters and WAL.
type shardState struct {
	id  int
	eng *inkstream.Engine
	c   *metrics.Counters
	wal *persist.WAL
}

// Router owns the shards and the round pipeline.
type Router struct {
	model      *gnn.Model
	part       *graph.Partition
	strategy   string       // partition strategy name (for stats; "custom" when injected)
	replica    *graph.Graph // directed union of all shard arcs; router goroutine only
	undirected bool
	shards     []*shardState
	cut        graph.CutStats

	// Subscription-filtered delivery state (apply goroutine only, engines
	// idle whenever it is touched). subs[s][u] counts the live arcs from
	// remote vertex u into shard-s-owned vertices: shard s consumes u's
	// ghost rows iff the count is positive. remoteSubs[u] counts the shards
	// subscribed to u; boundary[s] is the per-shard mask of owned vertices
	// with at least one remote subscriber (the engines' boundary-phase
	// input, mutated in place between rounds). A 1-shard deployment has no
	// remote sources, so its tables stay empty.
	subs       []map[graph.NodeID]int
	remoteSubs []int
	boundary   [][]bool

	submitCh  chan *request
	roundCh   chan *round
	quit      chan struct{}
	closeOnce sync.Once
	// closeMu orders submits against Close: a submitter holds the read
	// side across its submitCh send, so once Close sets closed under the
	// write side no request can land after routerLoop's shutdown drain
	// (a bare select on quit could — a buffered send and a closed quit
	// are both ready, and select picks between them at random).
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	updates   atomic.Int64 // successful mutation requests
	reads     atomic.Int64
	rounds    atomic.Int64 // rounds applied (including recovered)
	recovered atomic.Int64 // rounds replayed from the WALs at construction
	stalls    atomic.Int64 // rounds sealed early by a conflicting request
	accepted  atomic.Uint64
	processed atomic.Uint64
	edges     atomic.Int64 // logical edge count of the served graph
	corrupt   atomic.Bool
	// failStop holds the forensics of the round that tripped the corrupt
	// latch (nil while healthy): round ID, error, time. First failure wins.
	failStop atomic.Pointer[obs.FailStopInfo]

	boundaryRecs  atomic.Int64 // message-change records delivered to remote shards
	boundaryBytes atomic.Int64 // payload bytes those deliveries carried
	filteredRecs  atomic.Int64 // remote deliveries the subscription filter suppressed
	ghostRows     atomic.Int64 // ghost rows engines actually adopted from deliveries
	recSize       *obs.Histogram
	coSize        *obs.Histogram
	ackLat        *obs.Histogram
	reg           *obs.Registry
	started       time.Time

	// Observability (flight.go): the PR-5 serving stack at round
	// granularity — request flight recorder, BSP round profiler,
	// in-process time-series sampler and the burn-rate alert engine.
	flight   *obs.FlightRecorder
	profiler *obs.RoundRecorder
	roundDur *obs.Histogram // round open→published, exemplified by round ID
	roundSeq atomic.Uint64  // round IDs (assigned at seal, profiling or not)
	sampler  *obs.Sampler
	alerts   *obs.AlertEngine
	sloNS    atomic.Int64 // healthz ack-p99 SLO in ns (0 = disabled)

	// Runtime telemetry plane and incident black box (blackbox.go); the
	// runtime collector always exists, the black box only after
	// EnableBlackBox.
	runtime  *obs.Runtime
	blackbox *obs.BlackBox

	// Cumulative critical-path attribution, accumulated per profiled
	// round (flight.go): compute/barrier are per-shard means so
	// computeNS+barrierNS ≈ bspNS, and stragglerRounds[i] counts the
	// rounds shard i was the straggler of. last* hold the most recent
	// round's attribution as Float64bits.
	profiled         atomic.Int64
	computeNS        atomic.Int64
	barrierNS        atomic.Int64
	broadcastNS      atomic.Int64
	bspNS            atomic.Int64
	skewMilli        atomic.Int64 // cumulative straggler skew × 1000
	boundaryNS       atomic.Int64 // cumulative boundary-phase compute (filtered protocol)
	interiorNS       atomic.Int64 // cumulative interior-phase compute (filtered protocol)
	stragglerRounds  []atomic.Int64
	lastBarrierShare atomic.Uint64
	lastSkew         atomic.Uint64

	// delivA/delivB are the per-destination delivery lists,
	// double-buffered because layer l's lists are still being read by
	// engines while layer l+1's are built.
	delivA, delivB [][]inkstream.MessageChange
	intrOut        [][]inkstream.MessageChange
	bndOut         [][]inkstream.MessageChange
}

// New bootstraps a partitioned deployment: one full-graph inference over g
// and x, then per shard a directed shard graph, a cloned state and a
// partition-aware engine. g is the logical bootstrap graph (directed or
// undirected); the router expands undirected edges into arcs when routing.
// When cfg.WALDir holds round-aligned WALs from a previous run, their
// longest common round prefix is replayed before serving starts.
func New(model *gnn.Model, g *graph.Graph, x *tensor.Matrix, cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	part := cfg.Partition
	strategy := "custom"
	if part == nil {
		var err error
		part, err = graph.PartitionByStrategy(cfg.PartitionStrategy, g, cfg.Shards)
		if err != nil {
			return nil, err
		}
		strategy = cfg.PartitionStrategy
		if strategy == "" {
			strategy = "hash"
		}
	}
	if part.NumShards() != cfg.Shards || part.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("shard: partition is %d shards × %d nodes, want %d × %d",
			part.NumShards(), part.NumNodes(), cfg.Shards, g.NumNodes())
	}
	base, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		return nil, fmt.Errorf("shard: bootstrap inference: %w", err)
	}

	opts := cfg.Opts
	opts.Observer = nil
	opts.Trace = nil
	rt := &Router{
		model:      model,
		part:       part,
		strategy:   strategy,
		replica:    directedReplica(g),
		undirected: g.Undirected,
		cut:        part.Cut(g),
		recSize:    obs.NewSizeHistogram(),
		coSize:     obs.NewSizeHistogram(),
		ackLat:     obs.NewLatencyHistogram(),
		roundDur:   obs.NewLatencyHistogram(),
		started:    time.Now(),
	}
	rt.ackLat.EnableExemplars()
	rt.roundDur.EnableExemplars()
	// Observability defaults mirror the single server: last 256 interesting
	// requests, 1 in 64 sampled, last 256 rounds profiled. Reconfigure with
	// SetTraceSampling / SetRoundProfiling before serving.
	rt.flight = obs.NewFlightRecorder(256, 64)
	rt.profiler = obs.NewRoundRecorder(256)
	rt.stragglerRounds = make([]atomic.Int64, cfg.Shards)
	rt.edges.Store(int64(g.NumEdges()))
	for s := 0; s < cfg.Shards; s++ {
		st := &shardState{id: s, c: &metrics.Counters{}}
		eng, err := inkstream.NewFromState(model, part.ShardGraph(g, s), base.Clone(), st.c, opts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if err := eng.SetPartitionLocal(part.LocalMask(s)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		eng.PublishSnapshot() // epoch 1: the bootstrapped state
		eng.SetRoundTiming(true)
		st.eng = eng
		rt.shards = append(rt.shards, st)
	}
	if err := rt.initSubscriptions(); err != nil {
		return nil, err
	}

	if cfg.WALDir != "" {
		if err := rt.recover(cfg.WALDir); err != nil {
			return nil, err
		}
		for s := range rt.shards {
			w, err := persist.OpenShardWAL(cfg.WALDir, s)
			if err != nil {
				return nil, err
			}
			rt.shards[s].wal = w
		}
	}

	// In-process time-series + burn-rate alerts: 1s resolution, 10-minute
	// window, evaluated per tick (flight.go).
	rt.sampler = obs.NewSampler(time.Second, 600)
	rt.alerts = obs.NewAlertEngine(rt.sampler)
	rt.runtime = obs.NewRuntime()
	rt.buildTimeseries()
	rt.sampler.Start()
	rt.reg = obs.NewRegistry()
	rt.buildRegistry()
	rt.submitCh = make(chan *request, 4*maxGroup)
	rt.roundCh = make(chan *round, 1)
	rt.quit = make(chan struct{})
	rt.wg.Add(2)
	go rt.routerLoop()
	go rt.applyLoop()
	return rt, nil
}

// directedReplica copies g's arcs into a directed graph — the router's
// private validation and routing view (shard sub-deltas are always
// directed, so validating the expanded delta here guarantees every shard
// apply succeeds).
func directedReplica(g *graph.Graph) *graph.Graph {
	r := graph.New(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(graph.NodeID(u)) {
			if err := r.AddEdge(graph.NodeID(u), v); err != nil {
				panic("shard: directedReplica: " + err.Error())
			}
		}
	}
	return r
}

// NumShards returns the shard count.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Registry exposes the router's /metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Corrupt reports whether a failed round has fail-stopped writes.
func (rt *Router) Corrupt() bool { return rt.corrupt.Load() }

// FailStop returns the forensics of the round that fail-stopped writes, or
// nil while the deployment is healthy. The record is immutable once set.
func (rt *Router) FailStop() *obs.FailStopInfo { return rt.failStop.Load() }

// failStopNow trips the corrupt latch and records which round failed and
// why, then (when the black box is armed) triggers an automatic incident
// capture. First failure wins: a second trip keeps the original record.
func (rt *Router) failStopNow(roundID uint64, err error) {
	info := &obs.FailStopInfo{Round: roundID, Err: err.Error(), Time: time.Now()}
	if rt.failStop.CompareAndSwap(nil, info) {
		rt.blackbox.Trigger("fail-stop", info.Err)
	}
	rt.corrupt.Store(true)
}

// Close stops the pipeline (failing queued requests with ErrRouterClosed)
// and closes the shard WALs.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() {
		rt.closeMu.Lock()
		rt.closed = true
		rt.closeMu.Unlock()
		close(rt.quit)
	})
	rt.wg.Wait()
	if rt.sampler != nil {
		rt.sampler.Stop()
	}
	// Drain queued incident captures (e.g. a fail-stop racing shutdown)
	// before the WALs close, so the bundle still lands on disk.
	rt.blackbox.Close()
	var errs []error
	for _, s := range rt.shards {
		if s.wal != nil {
			if err := s.wal.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Apply submits one mutation batch (logical edge changes and/or vertex
// feature updates) and blocks until it is durable, applied on every owning
// shard, and visible in every shard's published snapshot — or rejected.
func (rt *Router) Apply(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	return <-rt.ApplyAsync(delta, vups)
}

// ApplyAsync is Apply without the wait; the returned channel yields the
// outcome exactly once.
func (rt *Router) ApplyAsync(delta graph.Delta, vups []inkstream.VertexUpdate) <-chan error {
	done := make(chan error, 1)
	req := &request{
		delta:   rt.expand(delta),
		logical: len(delta),
		vups:    vups,
		done:    done,
		start:   time.Now(),
	}
	if f := rt.flight; f != nil {
		req.id = f.NextID()
		req.sampled = f.SampledID(req.id)
		if len(delta) == 0 && len(vups) > 0 {
			req.kind = "features"
		} else {
			req.kind = "update"
		}
	}
	rt.accepted.Add(1)
	rt.closeMu.RLock()
	if rt.closed {
		rt.closeMu.RUnlock()
		rt.finish(req, ErrRouterClosed, 0)
		return done
	}
	// A full submitCh blocks here, but never deadlocks: routerLoop keeps
	// draining and takes no locks, and Close's write lock just waits.
	rt.submitCh <- req
	rt.closeMu.RUnlock()
	return done
}

// expand turns a logical delta into directed arcs: undirected edges become
// both arc directions, each routed (later) to the shard owning its
// destination.
func (rt *Router) expand(delta graph.Delta) graph.Delta {
	if !rt.undirected || len(delta) == 0 {
		return delta
	}
	out := make(graph.Delta, 0, 2*len(delta))
	for _, ch := range delta {
		out = append(out,
			graph.EdgeChange{U: ch.U, V: ch.V, Insert: ch.Insert},
			graph.EdgeChange{U: ch.V, V: ch.U, Insert: ch.Insert})
	}
	return out
}

// ReadEmbedding resolves node's embedding against the owning shard's
// published snapshot, returning the row, the snapshot epoch it was read
// at, and whether the node exists. Lock-free; safe from any goroutine.
func (rt *Router) ReadEmbedding(node int) (tensor.Vector, uint64, bool) {
	if node < 0 || node >= rt.part.NumNodes() {
		return nil, 0, false
	}
	snap := rt.shards[rt.part.Owner(graph.NodeID(node))].eng.Snapshot()
	rt.reads.Add(1)
	return snap.Row(node), snap.Epoch, true
}

// Snapshots returns every shard's currently published snapshot, indexed by
// shard. Safe from any goroutine.
func (rt *Router) Snapshots() []*inkstream.Snapshot {
	out := make([]*inkstream.Snapshot, len(rt.shards))
	for i, s := range rt.shards {
		out[i] = s.eng.Snapshot()
	}
	return out
}

// epochs returns (min, max) published epoch across shards; the difference
// is the inter-shard epoch skew (transient while a round publishes).
func (rt *Router) epochs() (lo, hi uint64) {
	for i, s := range rt.shards {
		e := s.eng.Snapshot().Epoch
		if i == 0 || e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// Round formation (router goroutine).

// routerLoop drains the submit channel, validates each request against the
// replica, fuses compatible requests into rounds (a request conflicting
// with the open round — same canonical edge or same updated node — seals
// it first, the coalescing stall rule of DESIGN.md §9 at round
// granularity), journals each sealed round to every shard WAL, and hands
// it to the apply loop.
func (rt *Router) routerLoop() {
	defer rt.wg.Done()
	defer close(rt.roundCh)
	for {
		select {
		case req := <-rt.submitCh:
			group := append([]*request(nil), req)
		drain:
			for len(group) < maxGroup {
				select {
				case r := <-rt.submitCh:
					group = append(group, r)
				default:
					break drain
				}
			}
			rt.processGroup(group)
		case <-rt.quit:
			for {
				select {
				case req := <-rt.submitCh:
					rt.finish(req, ErrRouterClosed, 0)
				default:
					return
				}
			}
		}
	}
}

// openRound tracks the round under construction and its conflict keys.
type openRound struct {
	reqs   []*request
	edges  map[[2]graph.NodeID]struct{} // canonical logical edges touched
	nodes  map[graph.NodeID]struct{}    // vertices with a feature update
	opened time.Time                    // first request fused in (profiler anchor)
}

// canonArc canonicalises a directed arc to its logical edge key (sorted
// endpoints when the deployment is undirected, so both expansion arcs of
// one edge share a key).
func (rt *Router) canonArc(u, v graph.NodeID) [2]graph.NodeID {
	if rt.undirected && v < u {
		return [2]graph.NodeID{v, u}
	}
	return [2]graph.NodeID{u, v}
}

// conflicts reports whether req touches an edge or vertex the open round
// already touches — the condition under which fusing would collapse two
// sequential operations on the same object into one batch and change
// per-request semantics.
func (o *openRound) conflicts(rt *Router, req *request) bool {
	for _, ch := range req.delta {
		if _, hit := o.edges[rt.canonArc(ch.U, ch.V)]; hit {
			return true
		}
	}
	for _, up := range req.vups {
		if _, hit := o.nodes[up.Node]; hit {
			return true
		}
	}
	return false
}

func (o *openRound) add(rt *Router, req *request) {
	if len(o.reqs) == 0 && rt.profiler != nil {
		o.opened = time.Now()
	}
	o.reqs = append(o.reqs, req)
	for _, ch := range req.delta {
		o.edges[rt.canonArc(ch.U, ch.V)] = struct{}{}
	}
	for _, up := range req.vups {
		o.nodes[up.Node] = struct{}{}
	}
}

// processGroup forms and dispatches rounds from one drained request group.
func (rt *Router) processGroup(group []*request) {
	open := &openRound{
		edges: make(map[[2]graph.NodeID]struct{}),
		nodes: make(map[graph.NodeID]struct{}),
	}
	for _, req := range group {
		if rt.corrupt.Load() {
			rt.finish(req, ErrCorrupt, 0)
			continue
		}
		if len(open.reqs) > 0 && open.conflicts(rt, req) {
			rt.stalls.Add(1)
			rt.sealRound(open)
			open = &openRound{
				edges: make(map[[2]graph.NodeID]struct{}),
				nodes: make(map[graph.NodeID]struct{}),
			}
		}
		// Validate against the replica, which reflects every previously
		// sealed round. Requests fused into the open round touch disjoint
		// edges and vertices (the conflict rule), so their validity is
		// independent and the base replica is the right reference.
		if err := rt.validate(req); err != nil {
			rt.finish(req, err, 0)
			continue
		}
		open.add(rt, req)
	}
	if len(open.reqs) > 0 {
		rt.sealRound(open)
	}
}

// validate checks one request fully at the router so shard applies cannot
// fail: expanded delta against the directed replica, feature updates
// against the vertex space and model input dimension.
func (rt *Router) validate(req *request) error {
	if err := req.delta.Validate(rt.replica); err != nil {
		return err
	}
	seen := make(map[graph.NodeID]struct{}, len(req.vups))
	for i, up := range req.vups {
		if int(up.Node) < 0 || int(up.Node) >= rt.part.NumNodes() {
			return fmt.Errorf("shard: vertex update %d: %w (%d)", i, graph.ErrBadNode, up.Node)
		}
		if len(up.X) != rt.model.InDim() {
			return fmt.Errorf("shard: vertex update %d: feature dim %d, model wants %d", i, len(up.X), rt.model.InDim())
		}
		if _, dup := seen[up.Node]; dup {
			return fmt.Errorf("shard: vertex update %d: node %d updated twice in one batch", i, up.Node)
		}
		seen[up.Node] = struct{}{}
	}
	return nil
}

// sealRound splits the open round into per-shard sub-batches, journals it
// to every shard WAL (one record per shard per round, empty records
// included, keeping the WALs round-aligned), applies the expanded delta to
// the replica, and dispatches the round to the apply loop. On a journal
// error every request in the round fails and nothing is applied.
func (rt *Router) sealRound(open *openRound) {
	r := &round{reqs: open.reqs}
	n := len(rt.shards)
	r.subDelta = make([]graph.Delta, n)
	r.subVups = make([][]inkstream.VertexUpdate, n)
	id := rt.roundSeq.Add(1)
	for _, req := range open.reqs {
		req.round = id
	}
	if rt.profiler != nil {
		r.prof = &obs.RoundTrace{ID: id, Start: open.opened, Reqs: len(open.reqs)}
		for _, req := range open.reqs {
			r.prof.Edges += req.logical
			r.prof.VUps += len(req.vups)
		}
	}
	// Per-shard sub-deltas preserve round arrival order (request order,
	// expansion order within a request); per-target event order on each
	// shard then matches the single-engine order.
	for _, req := range open.reqs {
		for _, ch := range req.delta {
			s := rt.part.Owner(ch.V)
			r.subDelta[s] = append(r.subDelta[s], ch)
		}
	}
	// Round vertex updates are canonically sorted by node (duplicates are
	// impossible — the conflict rule seals on them), so layer-0 record
	// order is node order on every deployment shape.
	var vups []inkstream.VertexUpdate
	for _, req := range open.reqs {
		vups = append(vups, req.vups...)
	}
	sort.Slice(vups, func(i, j int) bool { return vups[i].Node < vups[j].Node })
	for _, up := range vups {
		s := rt.part.Owner(up.Node)
		r.subVups[s] = append(r.subVups[s], up)
	}

	if r.prof != nil {
		r.prof.Fuse = time.Since(open.opened)
	}
	jStart := time.Now()
	if err := rt.journalRound(r); err != nil {
		err = fmt.Errorf("shard: journal: %w", err)
		for _, req := range r.reqs {
			rt.finish(req, err, len(r.reqs))
		}
		return
	}
	if r.prof != nil {
		r.prof.Journal = time.Since(jStart)
	}
	for _, req := range open.reqs {
		if req.id != 0 {
			req.marks[obs.StageJournal] = time.Since(req.start)
		}
	}
	for _, req := range open.reqs {
		if err := req.delta.Apply(rt.replica); err != nil {
			// Validation guarantees this cannot happen; if it does the
			// replica and shards are out of sync — fail-stop.
			ferr := fmt.Errorf("shard: replica apply: %w", err)
			rt.failStopNow(id, ferr)
			for _, q := range r.reqs {
				rt.finish(q, ferr, len(r.reqs))
			}
			return
		}
		for _, ch := range req.delta {
			if !rt.undirected || ch.U < ch.V {
				if ch.Insert {
					rt.edges.Add(1)
				} else {
					rt.edges.Add(-1)
				}
			}
		}
	}

	r.sealed = time.Now()
	select {
	case rt.roundCh <- r:
	case <-rt.quit:
		for _, req := range r.reqs {
			rt.finish(req, ErrRouterClosed, len(r.reqs))
		}
	}
}

// journalRound group-commits the round to every shard WAL in parallel: one
// AppendBuffered+Commit per shard, covering every request in the round
// with one fsync per shard.
func (rt *Router) journalRound(r *round) error {
	if rt.shards[0].wal == nil {
		return nil
	}
	return rt.eachShard(func(i int, s *shardState) error {
		if err := s.wal.AppendBuffered(r.subDelta[i], r.subVups[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := s.wal.Commit(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// Round execution (apply goroutine).

// applyLoop executes sealed rounds in order and acks their requests. A
// failed round (impossible after router-side validation, short of a bug or
// corrupted WAL) fail-stops the deployment for writes.
func (rt *Router) applyLoop() {
	defer rt.wg.Done()
	for r := range rt.roundCh {
		err := rt.executeRound(r)
		if err != nil {
			err = fmt.Errorf("shard: round apply failed, writes fail-stopped: %w", err)
			var id uint64
			if len(r.reqs) > 0 {
				id = r.reqs[0].round
			}
			rt.failStopNow(id, err)
		} else {
			rt.rounds.Add(1)
			rt.coSize.Observe(int64(len(r.reqs)))
			if r.prof != nil {
				rt.recordRound(r.prof)
			}
		}
		for _, req := range r.reqs {
			if err == nil && req.id != 0 {
				req.marks[obs.StageApply] = time.Since(req.start)
			}
			rt.finish(req, err, len(r.reqs))
		}
	}
}

// runStage is eachShard plus per-shard wall-time capture when the round is
// profiled: each goroutine writes only its own durs slot, and the WaitGroup
// join orders those writes before addStage reads them.
func (rt *Router) runStage(prof *obs.RoundTrace, durs []time.Duration, f func(i int, s *shardState) error) error {
	if prof == nil {
		return rt.eachShard(f)
	}
	return rt.eachShard(func(i int, s *shardState) error {
		t0 := time.Now()
		err := f(i, s)
		durs[i] = time.Since(t0)
		return err
	})
}

// addStage freezes one barrier stage into the round trace: per-shard compute
// from the stage timings, barrier wait as makespan − compute, and the
// engines' self-measured ghost/event/phase stats (written before each
// goroutine's WaitGroup release, so the post-barrier read is ordered).
// skipped marks shards whose layer call was elided by the idle-shard check:
// they are excluded from makespan and barrier attribution (an idle shard is
// not waiting — it has no work).
func (rt *Router) addStage(prof *obs.RoundTrace, name string, durs []time.Duration, skipped []bool, records int, bytes int64, broadcast time.Duration) {
	st := obs.RoundStageSpan{
		Name:      name,
		Records:   records,
		Bytes:     bytes,
		Broadcast: broadcast,
		Shards:    make([]obs.RoundShardSpan, len(durs)),
	}
	for i, d := range durs {
		if skipped != nil && skipped[i] {
			continue
		}
		if d > st.Makespan {
			st.Makespan = d
		}
	}
	for i, d := range durs {
		if skipped != nil && skipped[i] {
			st.Shards[i] = obs.RoundShardSpan{Skipped: true}
			continue
		}
		es := rt.shards[i].eng.LastStageStats()
		st.Shards[i] = obs.RoundShardSpan{
			Compute:   d,
			Barrier:   st.Makespan - d,
			Ghost:     es.Ghost,
			Events:    es.Events,
			Boundary:  es.Boundary,
			Interior:  es.Interior,
			GhostRows: es.GhostRows,
		}
	}
	prof.Stages = append(prof.Stages, st)
}

// eachShard runs f once per shard, in parallel for multi-shard
// deployments, and joins the errors.
func (rt *Router) eachShard(f func(i int, s *shardState) error) error {
	if len(rt.shards) == 1 {
		return f(0, rt.shards[0])
	}
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			errs[i] = f(i, s)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// Recovery.

// recover replays the longest common round prefix of the per-shard WALs
// through the normal round-execution path (journaling skipped — the
// records are already durable) and mirrors the deltas into the replica.
// Torn tails and shards that lost their last rounds only shrink the
// prefix; surviving suffix records beyond it were never acked by every
// shard, so every WAL is then cut to the prefix. Otherwise the next round
// would append behind them, and a later recovery would pair records of
// different rounds.
func (rt *Router) recover(dir string) error {
	perShard := make([][]persist.Batch, len(rt.shards))
	nRounds := -1
	for s := range rt.shards {
		batches, _, err := persist.ReadWAL(persist.ShardWALPath(dir, s))
		if err != nil {
			if os.IsNotExist(err) {
				// First boot (or a shard that never journaled): no history,
				// so the common round prefix is empty.
				nRounds = 0
				continue
			}
			return fmt.Errorf("shard %d: reading WAL: %w", s, err)
		}
		perShard[s] = batches
		if nRounds < 0 || len(batches) < nRounds {
			nRounds = len(batches)
		}
	}
	for i := 0; i < nRounds; i++ {
		r := &round{
			subDelta: make([]graph.Delta, len(rt.shards)),
			subVups:  make([][]inkstream.VertexUpdate, len(rt.shards)),
		}
		for s := range rt.shards {
			r.subDelta[s] = perShard[s][i].Delta
			r.subVups[s] = perShard[s][i].Vups
		}
		if err := rt.executeRound(r); err != nil {
			return fmt.Errorf("shard: replaying round %d: %w", i, err)
		}
		for s := range rt.shards {
			// The sub-deltas of one round route each arc to exactly one
			// shard, so their union replays cleanly onto the replica.
			if err := r.subDelta[s].Apply(rt.replica); err != nil {
				return fmt.Errorf("shard: replaying round %d into replica: %w", i, err)
			}
			for _, ch := range r.subDelta[s] {
				if !rt.undirected || ch.U < ch.V {
					if ch.Insert {
						rt.edges.Add(1)
					} else {
						rt.edges.Add(-1)
					}
				}
			}
		}
		rt.rounds.Add(1)
		rt.recovered.Add(1)
	}
	for s := range rt.shards {
		if err := persist.TruncateWAL(persist.ShardWALPath(dir, s), nRounds); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}
