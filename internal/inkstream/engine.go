package inkstream

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options tunes the engine. The zero value is the full InkStream algorithm;
// the Disable* switches exist for the paper's ablation studies (Table VI
// and DESIGN.md §4).
type Options struct {
	// DisablePruning turns off inter-layer pruned propagation (component 2
	// in Table VI): resilient nodes keep propagating events, so the whole
	// theoretical affected area is visited, as in InkStream-m(1).
	DisablePruning bool
	// DisableGrouping turns off event grouping (Fig. 4 ablation): each
	// native event is applied individually in arrival order, forcing a
	// conservative recompute whenever a lone deletion resets a channel.
	// Processing falls back to sequential order.
	DisableGrouping bool
	// CopyPayloads disables payload sharing between events fanned out from
	// one source (DESIGN.md §4.1): every event carries its own copy.
	CopyPayloads bool
	// Sequential disables intra-layer parallel processing of grouped
	// targets (and, since it idles the worker pool, parallel sharded event
	// routing too).
	Sequential bool
	// Trace, when set, is invoked once per visited node per layer with
	// the node's classification, after that layer completes (in sorted
	// target order, from a single goroutine). For observability and
	// debugging; keep it fast.
	Trace func(layer int, node graph.NodeID, cond Condition)
	// Observer, when set, records every Apply into the serving-path
	// latency/size histograms and fills a per-layer obs.Trace (phase
	// timings, event traffic, condition counts) that the observer emits
	// for slow updates. The trace buffer is engine-owned and reused, so
	// steady-state observation does not allocate; see SetObserver to
	// install one after construction.
	Observer *obs.Observer
}

// Engine holds the incrementally maintained inference state for one model
// over one dynamic graph. Create it with New (which runs the initial full
// inference) or NewFromState, then feed it ΔG batches via Update and
// vertex-feature changes via UpdateVertices.
type Engine struct {
	model *gnn.Model
	g     *graph.Graph
	state *gnn.State
	hooks UserHooks
	c     *metrics.Counters
	opts  Options
	stats ConditionStats
	// layerStats[l] restricts the condition statistics to layer l —
	// Fig. 8's distribution resolved per layer (deeper layers prune more).
	layerStats []ConditionStats

	// Per-Apply scratch, valid only during one Apply call but retained
	// across calls so the steady-state hot path does not allocate: the
	// maps are cleared (not re-made) per batch, created lazily on the
	// first non-empty delta.
	insArcs  map[[2]graph.NodeID]struct{}
	degDelta map[graph.NodeID]int
	// snapMaps[l] holds snapshotRemovedSources' per-layer tables, cleared
	// per batch; nil until the first deletion batch.
	snapMaps []map[graph.NodeID]tensor.Vector
	// negCache caches negated old messages within one enqueueChangedEdges
	// pass; nil until the first accumulative deletion batch.
	negCache map[graph.NodeID]tensor.Vector

	// arena backs every Apply-scoped payload vector; rewound at the start
	// of each Apply.
	arena vecArena

	// The open batch (stage): its edge changes and the pre-batch messages
	// of removed-arc sources, valid until the end of Apply or FinishRound.
	curDelta graph.Delta
	curOld   []map[graph.NodeID]tensor.Vector

	// processRange fan-in buffers, reused across layers and Applies:
	// outR[i]/outU[i] keep their capacity for group slot i. recOut collects
	// a layer's message-change records in target order, from which the next
	// layer regenerates its fan-out (regenFanOut); carU carries the merged
	// user events into the next layer (overwritten in place: the grouper
	// has absorbed them before carryUser merges).
	outR   [][]MessageChange
	outU   [][]UserEvent
	conds  []Condition
	recOut []MessageChange
	carU   []UserEvent

	// Partitioned-mode state (partition.go). partLocal non-nil switches the
	// engine into shard mode: Apply is disabled in favour of the round
	// protocol (BeginRound, RoundLayerBoundary + RoundLayerInterior per
	// layer, FinishRound), whose records the router also delivers to the
	// subscribing shards.
	partLocal  []bool
	partActive bool

	// Boundary-first overlap state (partition.go). partBoundary marks the
	// local vertices with at least one remote subscriber; RoundLayerBoundary
	// stashes the layer's groups (reordered boundary-first) plus the split
	// point so RoundLayerInterior can finish the layer while the router
	// exchanges the boundary records. partRecB is the interior phase's
	// record buffer — the boundary phase's slice (recOut) is still being
	// read by the router while the interior computes, so the two phases
	// must not share backing storage.
	partBoundary  []bool
	partGroups    []*group
	partSplit     int
	partLayer     int
	partSplitOpen bool
	partRecB      []MessageChange

	// roundTiming gates the per-stage round profiler hooks (partition.go):
	// when on, each round stage leaves a RoundStageStats in lastStage for
	// the router to collect after the stage barrier. Off by
	// default — a couple of time.Now calls per stage is cheap, but the
	// profiler is still opt-in like the flight recorder.
	roundTiming bool
	lastStage   RoundStageStats

	// routeN stages one layer's full native event list (changed-edge events
	// plus the record fan-out) ahead of grouping, so the sharded router can
	// partition it; reused across layers and Applies.
	routeN []Event
	// shardThreshold overrides defaultShardThreshold when positive; tests
	// set it to force either grouping route.
	shardThreshold int

	// scratchPools[l] recycles processTarget worker scratch for layer l.
	scratchPools []sync.Pool

	// gr is the reusable epoch-stamped grouping table.
	gr *grouper

	// snap is the epoch-snapshot machinery (snapshot.go); dirt is the
	// per-group output-changed scratch merged alongside conds.
	snap snapState
	dirt []bool

	// obs records per-update latency and traces; trace is the reusable
	// per-Apply span buffer it emits (nil obs disables both).
	obs   *obs.Observer
	trace obs.Trace
}

// New bootstraps an engine with a full-graph inference over g and x (the
// paper's "initial full graph inference" whose checkpoints are saved).
// The graph is used (and mutated by Update) by reference.
func New(model *gnn.Model, g *graph.Graph, x *tensor.Matrix, c *metrics.Counters, opts Options) (*Engine, error) {
	if err := CheckModel(model); err != nil {
		return nil, err
	}
	state, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		return nil, err
	}
	return NewFromState(model, g, state, c, opts)
}

// NewFromState wraps an existing checkpointed state (which must be
// consistent with g). It installs the built-in self-dependence hooks; use
// SetHooks to extend them.
func NewFromState(model *gnn.Model, g *graph.Graph, state *gnn.State, c *metrics.Counters, opts Options) (*Engine, error) {
	if err := CheckModel(model); err != nil {
		return nil, err
	}
	if state.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("inkstream: state for %d nodes, graph has %d", state.NumNodes(), g.NumNodes())
	}
	e := &Engine{model: model, g: g, state: state, c: c, opts: opts}
	e.hooks = SelfHooks{SelfDependent: func(l int) bool {
		return l < model.NumLayers() && model.Layers[l].SelfDependent()
	}}
	e.gr = newGrouper(g.NumNodes())
	e.layerStats = make([]ConditionStats, model.NumLayers())
	e.scratchPools = make([]sync.Pool, model.NumLayers())
	e.obs = opts.Observer
	e.trace.CondNames = ConditionNames()
	return e, nil
}

// SetObserver installs (or, with nil, removes) the serving-path observer
// after construction; the HTTP server uses this to share one observer
// between the engine and its /metrics registry. Not safe to call
// concurrently with Apply.
func (e *Engine) SetObserver(o *obs.Observer) { e.obs = o }

// Observer returns the installed observer (nil when observability is off).
func (e *Engine) Observer() *obs.Observer { return e.obs }

// Trace returns the engine-owned per-layer trace of the most recent Apply.
// With an observer installed the trace is refilled on every Apply, so the
// returned pointer is only valid until the next one — Clone to retain (the
// server's flight recorder does exactly that for sampled requests). Writer
// goroutine only; nil observer means the trace is never filled.
func (e *Engine) Trace() *obs.Trace { return &e.trace }

func checkNorms(model *gnn.Model) error {
	for l := range model.Layers {
		if n := model.Norm(l); n != nil && !n.IsFrozen {
			return fmt.Errorf("inkstream: layer %d has exact-mode GraphNorm; incremental updates require frozen statistics (Sec. II-E) — call Freeze first", l)
		}
	}
	return nil
}

// CheckModel verifies the paper's expressiveness conditions (Sec. II):
// (1) every layer's update reads only the node's own message and
// aggregated neighborhood — guaranteed by the gnn.Layer interface shape,
// except for exact-mode GraphNorm, which couples all vertices and must be
// frozen; and (2) every aggregation function is at least partially
// reversible, so old contributions can be cancelled (std-like functions
// are rejected). New and NewFromState run this check automatically.
func CheckModel(model *gnn.Model) error {
	if err := model.Validate(); err != nil {
		return err
	}
	for l, layer := range model.Layers {
		if !layer.Agg().Reversible() {
			return fmt.Errorf("inkstream: layer %d (%s) uses an irreversible aggregation function %s; incremental updates cannot cancel old contributions (expressiveness condition 2)",
				l, layer.Name(), layer.Agg().Kind())
		}
	}
	return checkNorms(model)
}

// SetHooks replaces the user-event hooks. The replacement must subsume the
// self-dependence behaviour if the model needs it (wrap SelfHooks).
func (e *Engine) SetHooks(h UserHooks) { e.hooks = h }

// State exposes the maintained checkpoints (read-only by convention).
func (e *Engine) State() *gnn.State { return e.state }

// Graph exposes the maintained graph (read-only by convention; mutate it
// only through Update).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Model returns the model under inference.
func (e *Engine) Model() *gnn.Model { return e.model }

// Stats returns the cumulative per-condition visit statistics.
func (e *Engine) Stats() *ConditionStats { return &e.stats }

// LayerStats returns the cumulative condition statistics restricted to
// layer l.
func (e *Engine) LayerStats(l int) *ConditionStats { return &e.layerStats[l] }

// ResetStats clears the condition statistics (total and per layer).
func (e *Engine) ResetStats() {
	e.stats = ConditionStats{}
	for l := range e.layerStats {
		e.layerStats[l] = ConditionStats{}
	}
}

// Output returns the maintained final-layer embeddings.
func (e *Engine) Output() *tensor.Matrix { return e.state.Output() }

// Verify recomputes the full inference from scratch over the current graph
// and input features and compares it against the maintained state — a
// debugging aid for deployments. Monotonic-only models must match
// bit-for-bit; models with any accumulative layer are checked within tol
// (pass 0 to force the bit-exact comparison).
func (e *Engine) Verify(tol float32) error {
	_, err := e.VerifyDiff(tol)
	return err
}

// VerifyDiff is Verify with the measurement exposed: it always returns the
// output-layer max absolute difference between the maintained state and the
// from-scratch recomputation, alongside the pass/fail error. The serving
// layer reports the measured diff in the /v1/verify response body.
func (e *Engine) VerifyDiff(tol float32) (float32, error) {
	want, err := gnn.Infer(e.model, e.g, e.state.H[0], nil)
	if err != nil {
		return 0, err
	}
	maxDiff := e.state.Output().MaxAbsDiff(want.Output())
	exact := true
	for _, layer := range e.model.Layers {
		if !layer.Agg().Monotonic() {
			exact = false
			break
		}
	}
	if exact || tol <= 0 {
		if !e.state.Equal(want) {
			return maxDiff, fmt.Errorf("inkstream: state diverged from recomputation (output max diff %g)", maxDiff)
		}
		return maxDiff, nil
	}
	if !e.state.ApproxEqual(want, tol) {
		return maxDiff, fmt.Errorf("inkstream: state diverged beyond tol %g (output max diff %g)", tol, maxDiff)
	}
	return maxDiff, nil
}

// Refresh re-anchors the cache by recomputing the full inference over the
// current graph and features. Monotonic aggregators never need this (they
// are bit-exact); accumulative aggregators accumulate floating-point drift
// across many incremental batches, and deployments can Refresh on the same
// cadence as the paper's periodic retraining to bound it. Counters are not
// charged (it is maintenance, not serving work).
func (e *Engine) Refresh() error {
	state, err := gnn.Infer(e.model, e.g, e.state.H[0], nil)
	if err != nil {
		return err
	}
	e.state = state
	e.markAllDirty()
	return nil
}

// Update applies one ΔG batch of edge insertions/removals and incrementally
// refreshes the cached state (Algorithm 1). On validation error the graph
// and state are unchanged.
func (e *Engine) Update(delta graph.Delta) error { return e.Apply(delta, nil) }

// UpdateVertices applies vertex-feature updates (Sec. II-F).
func (e *Engine) UpdateVertices(ups []VertexUpdate) error { return e.Apply(nil, ups) }

// Apply processes edge changes and vertex-feature updates as one batch
// between two timestamps. It is the round protocol with every vertex local:
// the same staging step as BeginRound, then per layer the same staging and
// grouping as RoundLayerBoundary and one processRange over every target.
func (e *Engine) Apply(delta graph.Delta, vups []VertexUpdate) error {
	// Observability: with an observer installed, every phase below is
	// timed into the engine-owned reusable trace (no allocation) and the
	// batch is recorded into the latency/size histograms at the end. A few
	// time.Now calls per update keep the overhead well under the <5%
	// budget the observability layer is held to (BenchmarkApplyObservability).
	if e.partLocal != nil {
		return errPartitioned
	}
	var tr *obs.Trace
	var t0, phase0 time.Time
	if e.obs != nil {
		tr = &e.trace
		t0 = time.Now()
	}
	recs, err := e.stage(delta, vups, tr)
	if err != nil {
		return err
	}

	// Changed-edge events are re-staged at every layer; the rest of a
	// layer's native input is the fan-out of the previous layer's records.
	nArcs := int64(len(delta))
	if e.g.Undirected {
		nArcs *= 2
	}
	for l := 0; l < e.model.NumLayers(); l++ {
		var bytes0 int64
		var conds0 ConditionStats
		if tr != nil {
			tr.Layers[l].UserEventsIn = int64(len(e.carU))
			if e.c != nil {
				bytes0 = e.c.BytesFetched.Load()
			}
			conds0 = e.layerStats[l]
			phase0 = time.Now()
		}
		groups := e.stageLayer(l, recs)
		e.recOut = e.processRange(l, groups, 0, len(groups), e.recOut[:0])
		e.carryUser(groups, len(groups))
		recs = e.recOut
		if tr != nil {
			span := &tr.Layers[l]
			span.Elapsed = time.Since(phase0)
			span.EventsIn = int64(len(e.routeN))
			if l > 0 {
				// Layer l-1's fan-out is built when layer l stages.
				tr.Layers[l-1].EventsOut = span.EventsIn - nArcs
			}
			if e.c != nil {
				span.BytesFetched = e.c.BytesFetched.Load() - bytes0
			}
			for c := 0; c < int(numConditions); c++ {
				n := e.layerStats[l].Counts[c] - conds0.Counts[c]
				span.Cond[c] = n
				span.Nodes += n
			}
		}
	}
	e.curDelta, e.curOld, e.carU = nil, nil, e.carU[:0]
	if tr != nil {
		tr.Total = time.Since(t0)
		e.obs.RecordUpdate(tr)
	}
	e.snap.applied++
	return nil
}

// stage opens one batch, for Apply and BeginRound alike: it validates the
// edge changes and vertex updates, rewinds the payload arena, snapshots the
// pre-batch messages of removed-arc sources, indexes the inserted arcs and
// in-degree deltas, mutates the graph and applies the vertex updates. It
// returns the layer-0 message-change records of the feature updates. On
// validation error nothing is mutated. A non-nil tr is reset and receives
// the batch size and the phase timings.
func (e *Engine) stage(delta graph.Delta, vups []VertexUpdate, tr *obs.Trace) ([]MessageChange, error) {
	if err := delta.Validate(e.g); err != nil {
		return nil, err
	}
	if err := e.validateVertexUpdates(vups); err != nil {
		return nil, err
	}
	var t0 time.Time
	if tr != nil {
		tr.Reset(e.model.NumLayers())
		tr.DeltaEdges = len(delta)
		tr.VertexUpdates = len(vups)
		t0 = time.Now()
	}

	// Rewind the payload arena: every payload from the previous batch is
	// dead by now (groups and event buffers only reuse, never re-read).
	e.arena.reset()
	// Snapshot m⁻_{l,u} for every layer for the sources of removed arcs
	// (ghost rows included — they still hold last round's values here):
	// their Del payloads must be the previous-timestamp messages even if the
	// source is updated while processing an earlier layer. Taken before any
	// mutation.
	e.curOld = e.snapshotRemovedSources(delta)
	e.indexDeltaArcs(delta)
	if err := delta.Apply(e.g); err != nil {
		return nil, err // unreachable after Validate, but fail safe
	}
	e.curDelta = delta
	if tr != nil {
		tr.DeltaApply = time.Since(t0)
		t0 = time.Now()
	}
	recs := e.applyVertexUpdates(vups)
	if tr != nil {
		tr.VertexApply = time.Since(t0)
	}
	return recs, nil
}

// stageLayer builds and groups layer l's native event list, for Apply and
// RoundLayerBoundary alike. recs are the node-sorted message-change records
// of the previous layer (of the vertex updates, for l == 0). In partitioned
// mode the remote records first refresh their ghost message rows. The list
// is the changed-edge events in batch order, then the fan-out of recs in
// node order — with every vertex local, exactly the order in which layer
// l-1 processed its targets.
func (e *Engine) stageLayer(l int, recs []MessageChange) []*group {
	if e.partLocal != nil {
		// Ghost refresh: adopt the remote shards' message changes before
		// any event references M[l]. Local records are this engine's own
		// rows — already current.
		var t0 time.Time
		if e.roundTiming {
			t0 = time.Now()
		}
		ghosts := 0
		for _, r := range recs {
			if e.partLocal[r.Node] {
				continue
			}
			e.state.M[l].SetRow(int(r.Node), r.New)
			e.c.StoreVec(len(r.New))
			ghosts++
		}
		if e.roundTiming {
			e.lastStage = RoundStageStats{GhostRows: ghosts, Ghost: time.Since(t0)}
		}
	}
	e.routeN = e.appendChangedEdgeEvents(e.routeN[:0], l, e.curDelta, e.curOld)
	e.routeN = e.regenFanOut(e.routeN, l, recs)
	return e.groupLayer(l, e.routeN, e.carU)
}

// carryUser merges the per-slot user events of a processed layer into the
// list carried into the next layer, in global target order. groups[:split]
// and groups[split:] are each sorted by target (Apply passes an empty
// second run), so a two-way merge reproduces the unsplit order.
func (e *Engine) carryUser(groups []*group, split int) {
	uev := e.carU[:0]
	i, j := 0, split
	for i < split && j < len(groups) {
		if groups[i].target < groups[j].target {
			uev = append(uev, e.outU[i]...)
			i++
		} else {
			uev = append(uev, e.outU[j]...)
			j++
		}
	}
	for ; i < split; i++ {
		uev = append(uev, e.outU[i]...)
	}
	for ; j < len(groups); j++ {
		uev = append(uev, e.outU[j]...)
	}
	e.carU = uev
}

// AppliedBatches returns the number of successfully applied batches —
// the counter a published Snapshot records as AppliedBatches. Writer
// goroutine only.
func (e *Engine) AppliedBatches() uint64 { return e.snap.applied }

// arcsOf expands a logical edge change into its directed arcs without
// allocating: the arcs come back by value in a fixed-size array, with n
// reporting how many are live (2 when the graph is undirected, else 1).
// Callers iterate arcs[:n].
func (e *Engine) arcsOf(ch graph.EdgeChange) (arcs [2][2]graph.NodeID, n int) {
	arcs[0] = [2]graph.NodeID{ch.U, ch.V}
	if e.g.Undirected {
		arcs[1] = [2]graph.NodeID{ch.V, ch.U}
		return arcs, 2
	}
	return arcs, 1
}

// shardCount decides how many grouper shards the upcoming layer's event
// routing uses: 1 (sequential) below the event threshold or when any
// ablation/option rules out pool work; otherwise twice the effective worker
// count — ParallelForGrain inlines regions smaller than two chunks per
// worker, and the 2× headroom also absorbs the up-to-2× shard imbalance of
// the power-of-two block partition — capped at maxShards so the per-chunk
// count matrix of the partition passes stays small.
func (e *Engine) shardCount(nEvents int) int {
	if e.opts.Sequential || e.opts.DisableGrouping {
		return 1
	}
	minEv := e.shardThreshold
	if minEv <= 0 {
		minEv = defaultShardThreshold
	}
	if nEvents < minEv {
		return 1
	}
	w := tensor.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 {
		// One worker: the partition passes cost memory traffic and buy no
		// parallelism — the direct sequential grouper is strictly better.
		return 1
	}
	return min(2*w, maxShards)
}

const (
	// defaultShardThreshold gates the sharded router: below this many
	// events per layer, sequential routing wins (the partition passes and
	// pool handoff cost more than they save). Same spirit as
	// tensor.MinChunkWork, measured in events rather than grain units.
	defaultShardThreshold = 512
	// maxShards bounds the shard count (and must stay ≤ 256: the
	// partition records shard owners in a uint8).
	maxShards = 32
)

// snapshotRemovedSources clones the pre-batch message rows of every removed
// arc's source node at every layer. Insert-only (and empty) deltas return
// nil without touching the tables; the per-layer maps and the clones are
// reused storage, valid only until the next Apply.
func (e *Engine) snapshotRemovedSources(delta graph.Delta) []map[graph.NodeID]tensor.Vector {
	if !slices.ContainsFunc(delta, func(ch graph.EdgeChange) bool { return !ch.Insert }) {
		return nil
	}
	L := e.model.NumLayers()
	if e.snapMaps == nil {
		e.snapMaps = make([]map[graph.NodeID]tensor.Vector, L)
		for l := range e.snapMaps {
			e.snapMaps[l] = make(map[graph.NodeID]tensor.Vector)
		}
	} else {
		for l := range e.snapMaps {
			clear(e.snapMaps[l])
		}
	}
	out := e.snapMaps
	for _, ch := range delta {
		if ch.Insert {
			continue
		}
		arcs, na := e.arcsOf(ch)
		for _, a := range arcs[:na] {
			src := a[0]
			for l := 0; l < L; l++ {
				if _, ok := out[l][src]; !ok {
					out[l][src] = e.arena.clone(e.state.M[l].Row(int(src)))
				}
			}
		}
	}
	return out
}

// appendChangedEdgeEvents creates the layer-l events for ΔG (Sec. II-B2,
// "Propagate for changed edges"): for a removed arc (u,v) an event
// cancelling the old message m⁻_{l,u} at v; for an inserted arc (s,t) an
// event adding the current message m_{l,s} — which the previous layer's
// processing has already refreshed if s was affected. Events are appended
// to evts (rather than routed into the grouper directly) so stageLayer can
// hand the complete list to either the sequential or the sharded router.
func (e *Engine) appendChangedEdgeEvents(evts []Event, l int, delta graph.Delta, oldMsg []map[graph.NodeID]tensor.Vector) []Event {
	agg := e.model.Layers[l].Agg()
	dim := e.model.Layers[l].MsgDim()
	if len(e.negCache) > 0 {
		clear(e.negCache)
	}
	for _, ch := range delta {
		arcs, na := e.arcsOf(ch)
		for _, a := range arcs[:na] {
			src, dst := a[0], a[1]
			var ev Event
			switch {
			case agg.Monotonic() && ch.Insert:
				ev = Event{Op: OpAdd, Target: dst, Payload: e.payload(e.state.M[l].Row(int(src)))}
			case agg.Monotonic():
				ev = Event{Op: OpDel, Target: dst, Payload: e.payload(oldMsg[l][src])}
			case ch.Insert:
				ev = Event{Op: OpUpdate, Target: dst, Payload: e.payload(e.state.M[l].Row(int(src)))}
			default:
				neg, ok := e.negCache[src]
				if !ok {
					if e.negCache == nil {
						e.negCache = make(map[graph.NodeID]tensor.Vector)
					}
					neg = e.arena.alloc(dim)
					tensor.Scale(neg, -1, oldMsg[l][src])
					e.negCache[src] = neg
				}
				ev = Event{Op: OpUpdate, Target: dst, Payload: neg}
			}
			e.c.FetchVec(dim)
			evts = append(evts, ev)
		}
	}
	return evts
}

// payload returns p, or a private copy when payload sharing is ablated.
func (e *Engine) payload(p tensor.Vector) tensor.Vector {
	if e.opts.CopyPayloads {
		return p.Clone()
	}
	return p
}

// groupLayer routes one layer's staged native events, then the carried
// user events, through the grouper: sequentially for small layers, across
// the worker pool for large ones. Both routes yield identical groups in
// identical order (DESIGN.md §9), so the choice is invisible to everything
// downstream. The groups are sorted by target (except under
// DisableGrouping, which keeps arrival order — one group per event).
func (e *Engine) groupLayer(l int, native []Event, user []UserEvent) []*group {
	dim := e.model.Layers[l].MsgDim()
	if S := e.shardCount(len(native) + len(user)); S > 1 {
		e.gr.beginSharded(dim, S)
		return e.gr.groupSharded(native, user, e.hooks)
	}
	e.gr.begin(dim)
	for _, ev := range native {
		e.gr.addNative(ev)
	}
	for _, ev := range user {
		e.gr.addUser(ev)
	}
	return e.gr.finish(e.hooks)
}

// processRange runs processTarget over groups[lo:hi] (parallel unless the
// engine is sequential): it updates each target's α (incrementally where
// eligible), recomputes the layer output for affected targets, and captures
// each changed next-layer message as a record in the per-slot outR buffer.
// Targets are independent after grouping, so they run in parallel; the
// range's records and conditions are then merged in group order (sorted by
// target), so the records appended to recs come out sorted by source node.
// Carried user events stay in the slot buffers for carryUser.
func (e *Engine) processRange(l int, groups []*group, lo, hi int, recs []MessageChange) []MessageChange {
	n := len(groups)
	// Grow the per-group tables to n slots, keeping each slot's accumulated
	// capacity across layers and Apply calls.
	for len(e.outR) < n {
		e.outR = append(e.outR, nil)
		e.outU = append(e.outU, nil)
	}
	if cap(e.conds) < n {
		e.conds = make([]Condition, n)
		e.dirt = make([]bool, n)
	}
	conds, dirt := e.conds[:n], e.dirt[:n]
	outU, outR := e.outU, e.outR
	body := func(a, b int) {
		// Per-chunk scratch, recycled across chunks, layers and Applies.
		sc := e.getScratch(l)
		for i := lo + a; i < lo+b; i++ {
			outU[i], outR[i], conds[i], dirt[i] = e.processTarget(l, groups[i], sc, outU[i][:0], outR[i][:0])
		}
		e.scratchPools[l].Put(sc)
	}
	if e.opts.Sequential || e.opts.DisableGrouping {
		body(0, hi-lo)
	} else {
		tensor.ParallelForGrain(hi-lo, 4*e.model.Layers[l].MsgDim(), body)
	}
	for i := lo; i < hi; i++ {
		recs = append(recs, outR[i]...)
		e.stats.Add(conds[i])
		e.layerStats[l].Add(conds[i])
		if dirt[i] {
			e.markDirty(groups[i].target)
		}
		if e.opts.Trace != nil {
			e.opts.Trace(l, groups[i].target, conds[i])
		}
	}
	return recs
}

// getScratch fetches (or lazily builds) worker scratch for layer l.
func (e *Engine) getScratch(l int) *scratch {
	if v := e.scratchPools[l].Get(); v != nil {
		return v.(*scratch)
	}
	return newScratch(e.model.Layers[l])
}

// scratch is the per-worker-chunk temporary storage of processTarget: the
// staged layer output, the reduced deletion/addition messages and the
// staged α. Contents never survive one target.
type scratch struct {
	newH               tensor.Vector
	mDel, mAdd, staged tensor.Vector
}

func newScratch(layer gnn.Layer) *scratch {
	return &scratch{
		newH:   make(tensor.Vector, layer.OutDim()),
		mDel:   make(tensor.Vector, layer.MsgDim()),
		mAdd:   make(tensor.Vector, layer.MsgDim()),
		staged: make(tensor.Vector, layer.MsgDim()),
	}
}

// processTarget handles all events heading to one node in one layer:
// Algorithm 1 lines 4–21 plus the user-hook application. A changed
// next-layer message is appended to recs as a MessageChange record, from
// which the next layer's staging regenerates the fan-out of Sec. II-B2
// (regenFanOut); hook events are appended to uevts. Both are reusable
// buffers owned by the caller's group slot. The final bool reports whether
// the write landed in the final layer with a changed value — i.e. whether
// the served embedding row is now dirty.
func (e *Engine) processTarget(l int, g *group, sc *scratch, uevts []UserEvent, recs []MessageChange) ([]UserEvent, []MessageChange, Condition, bool) {
	layer := e.model.Layers[l]
	agg := layer.Agg()
	u := g.target
	e.c.VisitNode()
	e.c.AddEvents(len(g.dels) + len(g.adds) + g.nUpd + len(g.user))

	alphaChanged := false
	cond := CondSelfOnly
	if g.hasNative() {
		if agg.Monotonic() {
			if e.opts.DisableGrouping {
				alphaChanged, cond = e.applyMonotonicUngrouped(l, g, sc)
			} else {
				alphaChanged, cond = e.applyMonotonic(l, g, sc)
			}
		} else {
			e.applyAccumulative(l, g)
			alphaChanged = true
			cond = CondAccumulative
		}
	}
	force := false
	if len(g.user) > 0 {
		force = e.hooks.Apply(l, u, g.user)
	}

	affected := alphaChanged || force
	if e.opts.DisablePruning && g.hasNative() {
		affected = true
	}
	if !affected {
		if g.hasNative() {
			cond = CondPruned
		}
		return uevts, recs, cond, false
	}

	// Recompute the layer output h_{l+1,u} = act(𝒯(α, m)) from the
	// (possibly updated) α and the node's own current message.
	hRow := e.state.H[l+1].Row(int(u))
	newH := sc.newH
	layer.Update(newH, e.state.Alpha[l].Row(int(u)), e.state.M[l].Row(int(u)))
	if n := e.model.Norm(l); n != nil {
		n.ApplyRow(newH)
	}
	gnn.CountUpdate(e.c, layer)
	hChanged := !newH.Equal(hRow)
	copy(hRow, newH)
	e.c.StoreVec(len(hRow))
	outChanged := hChanged && l+1 == e.model.NumLayers()

	if !hChanged && !e.opts.DisablePruning {
		// The embedding survived the α change (e.g. clamped by ReLU):
		// the node is resilient at the output level; prune.
		return uevts, recs, cond, false
	}
	if l+1 >= e.model.NumLayers() {
		return uevts, recs, cond, outChanged
	}

	// Refresh the node's next-layer message and record the change. oldM
	// escapes into the next layer's event payloads, shared by every event
	// from this node — the paper's one-payload-per-source memory model — and
	// lives on the Apply-scoped arena.
	next := e.model.Layers[l+1]
	mRow := e.state.M[l+1].Row(int(u))
	oldM := e.arena.clone(mRow)
	next.ComputeMessage(mRow, hRow)
	gnn.CountMessage(e.c, next)
	if oldM.Equal(mRow) && !e.opts.DisablePruning {
		return uevts, recs, cond, false
	}
	recs = append(recs, MessageChange{Node: u, Old: oldM, New: mRow})
	uevts = append(uevts, e.hooks.Propagate(l, u, oldM, mRow)...)
	return uevts, recs, cond, false
}
