package inkstream

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// This file is the partition-aware face of the engine: the shard-side half
// of partitioned multi-engine serving (internal/shard, DESIGN.md §11).
//
// In partitioned mode one engine owns a subset of the vertices. It holds
// full-size state matrices, but only the rows of local vertices are
// authoritative; message rows of remote vertices are ghost rows, refreshed
// from delivered message-change records at the start of every layer. Every
// layer ends in a MessageChange record per affected source (processTarget);
// the router delivers the records to their producer and subscribers in node
// order, and every shard regenerates the fan-out over its own in-arcs
// (stageLayer). Apply runs the same steps with every vertex local and its own
// records delivered back to itself. Because a shard graph holds every in-arc
// of every local vertex, the regenerated per-target event sequence is
// exactly the single-engine sequence restricted to local targets, in the
// same arrival order — which is what makes N-shard results bit-exact against
// Apply on a single engine (see DESIGN.md §11.3).

var errPartitioned = errors.New("inkstream: engine is in partitioned mode; use BeginRound/RoundLayerBoundary/RoundLayerInterior/FinishRound via the shard router")

// RoundStageStats is one shard's self-measured slice of one round stage,
// read by the router after the stage barrier (the WaitGroup join orders the
// write before the read). Ghost is the ghost-row refresh portion of a
// RoundLayerBoundary call; Events the native events the stage staged locally.
type RoundStageStats struct {
	GhostRows int
	Events    int
	Ghost     time.Duration
	// Boundary/Interior split one RoundLayerBoundary+RoundLayerInterior
	// pair's compute time into the part that produced outgoing records and
	// the part overlapped with the exchange. BoundaryTargets counts the
	// groups processed in the boundary phase.
	Boundary        time.Duration
	Interior        time.Duration
	BoundaryTargets int
}

// SetRoundTiming toggles the per-stage profiler hooks. Not safe to call
// concurrently with rounds.
func (e *Engine) SetRoundTiming(on bool) { e.roundTiming = on }

// LastStageStats returns the stats of the most recent round stage: a
// BeginRound call or a RoundLayerBoundary+RoundLayerInterior pair (zero when
// timing is off).
func (e *Engine) LastStageStats() RoundStageStats { return e.lastStage }

// MessageChange records that node Node's layer-(l+1) message changed from
// Old to New while processing layer l (or its layer-0 message, for a
// vertex-feature update). Old points into the emitting engine's arena and
// New into its live message matrix: both are stable until that engine's
// next BeginRound, so receivers must consume records within the same round
// (the router's layer barrier guarantees this).
type MessageChange struct {
	Node graph.NodeID
	Old  tensor.Vector
	New  tensor.Vector
}

// SetPartitionLocal switches the engine into partitioned mode: local[v]
// reports whether this engine owns vertex v. The engine's graph must
// already be the shard graph (every in-arc of every local vertex, nothing
// else — graph.Partition.ShardGraph builds it). Passing nil returns the
// engine to standalone mode. Not safe to call concurrently with rounds.
func (e *Engine) SetPartitionLocal(local []bool) error {
	if local != nil && len(local) != e.g.NumNodes() {
		return fmt.Errorf("inkstream: partition mask for %d nodes, graph has %d", len(local), e.g.NumNodes())
	}
	if e.partActive {
		return errors.New("inkstream: cannot change partition mask mid-round")
	}
	e.partLocal = local
	return nil
}

// BeginRound opens one update round: it validates and applies this shard's
// sub-batch (directed edge changes whose destinations are local, plus
// feature updates of local vertices) and returns the layer-0 message-change
// records produced by the feature updates, in sub-batch order. On
// validation error nothing is mutated and the round stays closed.
//
// The returned slice is engine-owned scratch, valid until the next call
// into this engine; callers that aggregate records across shards must copy
// the elements out (the structs, not the payloads — payloads stay valid for
// the round).
func (e *Engine) BeginRound(delta graph.Delta, vups []VertexUpdate) ([]MessageChange, error) {
	if e.partLocal == nil {
		return nil, errors.New("inkstream: BeginRound requires partitioned mode (SetPartitionLocal)")
	}
	if e.partActive {
		return nil, errors.New("inkstream: BeginRound with a round already open")
	}
	recs, err := e.stage(delta, vups, nil)
	if err != nil {
		return nil, err
	}
	e.partActive = true
	if e.roundTiming {
		e.lastStage = RoundStageStats{Events: len(recs)}
	}
	return recs, nil
}

// SetPartitionBoundary installs the boundary mask for split-layer rounds:
// boundary[v] marks a local vertex with at least one remote subscriber, i.e.
// a vertex whose message-change records other shards consume. The router
// derives the mask from its subscription tables and refreshes it between
// rounds when arc changes move the cut. Passing nil disables the split
// (RoundLayerBoundary then processes every target in the boundary phase).
// Not safe to call concurrently with rounds.
func (e *Engine) SetPartitionBoundary(boundary []bool) error {
	if boundary != nil && len(boundary) != e.g.NumNodes() {
		return fmt.Errorf("inkstream: boundary mask for %d nodes, graph has %d", len(boundary), e.g.NumNodes())
	}
	if e.partActive {
		return errors.New("inkstream: cannot change boundary mask mid-round")
	}
	e.partBoundary = boundary
	return nil
}

// RoundLayerBoundary runs the boundary phase of layer l of the open round.
// recs must be the node-sorted records delivered to this shard for the
// layer: the layer-0 records returned by BeginRound (for l == 0) or the
// records of the previous layer's two phases (for l > 0). It refreshes ghost
// message rows from remote records, regenerates the layer's event list
// (changed-edge events in sub-batch order, then record fan-out in node order
// — the single-engine arrival order restricted to local targets), groups it,
// and computes only the targets whose records other shards are waiting for.
// It returns those records immediately — sorted by node, engine-owned,
// stable until this engine's next RoundLayerBoundary — so the router can
// start the cross-shard exchange while RoundLayerInterior finishes the rest
// of the layer. Splitting a layer never changes values: grouped targets are
// independent within a layer (layer-l processing reads M[l]/Alpha[l] and
// writes only per-target H[l+1]/M[l+1] rows), so only the schedule moves.
// With no boundary mask, or under DisableGrouping (whose group list is in
// arrival order rather than target order), the whole layer runs in the
// boundary phase.
func (e *Engine) RoundLayerBoundary(l int, recs []MessageChange) ([]MessageChange, error) {
	if !e.partActive {
		return nil, errors.New("inkstream: RoundLayerBoundary without an open round")
	}
	if e.partSplitOpen {
		return nil, errors.New("inkstream: previous layer's interior phase still pending (RoundLayerInterior)")
	}
	if l < 0 || l >= e.model.NumLayers() {
		return nil, fmt.Errorf("inkstream: RoundLayerBoundary layer %d out of range [0,%d)", l, e.model.NumLayers())
	}

	groups := e.stageLayer(l, recs)
	if e.roundTiming {
		e.lastStage.Events = len(e.routeN) + len(e.carU)
	}

	split := len(groups)
	if e.partBoundary != nil && !e.opts.DisableGrouping {
		// Stable-partition boundary targets first. Both halves stay sorted
		// by target, so RoundLayerInterior can reconstruct the global target
		// order with a two-way merge.
		e.partGroups = e.partGroups[:0]
		for _, g := range groups {
			if e.partBoundary[g.target] {
				e.partGroups = append(e.partGroups, g)
			}
		}
		split = len(e.partGroups)
		for _, g := range groups {
			if !e.partBoundary[g.target] {
				e.partGroups = append(e.partGroups, g)
			}
		}
		groups = e.partGroups
	}

	var t0 time.Time
	if e.roundTiming {
		t0 = time.Now()
	}
	e.recOut = e.processRange(l, groups, 0, split, e.recOut[:0])
	if e.roundTiming {
		e.lastStage.Boundary = time.Since(t0)
		e.lastStage.BoundaryTargets = split
	}
	e.partGroups, e.partSplit, e.partLayer = groups, split, l
	e.partSplitOpen = true
	return e.recOut, nil
}

// RoundLayerInterior finishes the layer RoundLayerBoundary opened: it
// computes the interior targets (whose records no other shard consumes
// before the next layer barrier) and returns their records, sorted by node.
// The interior phase appends to a separate buffer — the boundary slice may
// still be in the router's hands — so the two returned slices never share
// backing storage within a layer.
func (e *Engine) RoundLayerInterior() ([]MessageChange, error) {
	if !e.partActive || !e.partSplitOpen {
		return nil, errors.New("inkstream: RoundLayerInterior without an open boundary phase")
	}
	groups, split, l := e.partGroups, e.partSplit, e.partLayer

	var t0 time.Time
	if e.roundTiming {
		t0 = time.Now()
	}
	e.partRecB = e.processRange(l, groups, split, len(groups), e.partRecB[:0])
	if e.roundTiming {
		e.lastStage.Interior = time.Since(t0)
	}

	// Merge the carried user events of the two phases back into global
	// target order, so the next layer sees exactly the event order an
	// unsplit layer produces.
	e.carryUser(groups, split)
	e.partSplitOpen = false
	return e.partRecB, nil
}

// HasCarriedRoundEvents reports whether the open round is carrying user-hook
// events into its next layer. The router's idle-shard check reads it between
// layer barriers: a shard with an empty sub-batch, an empty delivery list AND
// no carried events has provably nothing to do in the next layer,
// so the router skips the call entirely.
func (e *Engine) HasCarriedRoundEvents() bool { return len(e.carU) > 0 }

// MessageRow returns the engine's live layer-l message row of vertex v. The
// slice aliases engine state: callers copy it out before the engine runs
// again. The router uses it to hydrate a ghost row on the shard that just
// subscribed to v (a cut arc appeared where none existed).
func (e *Engine) MessageRow(l int, v graph.NodeID) (tensor.Vector, error) {
	if l < 0 || l >= e.model.NumLayers() {
		return nil, fmt.Errorf("inkstream: MessageRow layer %d out of range [0,%d)", l, e.model.NumLayers())
	}
	if int(v) >= e.g.NumNodes() {
		return nil, fmt.Errorf("inkstream: MessageRow node %d out of range", v)
	}
	return e.state.M[l].Row(int(v)), nil
}

// SetGhostMessageRow overwrites the ghost layer-l message row of remote
// vertex v — subscription hydration: a shard that starts consuming v's
// records mid-stream must first adopt v's current message, exactly as the
// bootstrap seeded every ghost row. Only legal between rounds and only for
// remote vertices (local rows are authoritative).
func (e *Engine) SetGhostMessageRow(l int, v graph.NodeID, row tensor.Vector) error {
	if e.partLocal == nil {
		return errors.New("inkstream: SetGhostMessageRow requires partitioned mode")
	}
	if e.partActive {
		return errors.New("inkstream: SetGhostMessageRow mid-round")
	}
	if l < 0 || l >= e.model.NumLayers() {
		return fmt.Errorf("inkstream: SetGhostMessageRow layer %d out of range [0,%d)", l, e.model.NumLayers())
	}
	if int(v) >= len(e.partLocal) {
		return fmt.Errorf("inkstream: SetGhostMessageRow node %d out of range", v)
	}
	if e.partLocal[v] {
		return fmt.Errorf("inkstream: SetGhostMessageRow on local node %d (row is authoritative)", v)
	}
	e.state.M[l].SetRow(int(v), row)
	return nil
}

// FinishRound closes the open round. The caller publishes a snapshot
// afterwards (PublishSnapshot) so readers see the round's effects.
func (e *Engine) FinishRound() error {
	if !e.partActive {
		return errors.New("inkstream: FinishRound without an open round")
	}
	if e.partSplitOpen {
		return errors.New("inkstream: FinishRound with a boundary phase still open (RoundLayerInterior)")
	}
	e.partActive = false
	e.curDelta, e.curOld, e.carU = nil, nil, e.carU[:0]
	e.snap.applied++
	if e.roundTiming {
		e.lastStage = RoundStageStats{}
	}
	return nil
}

// regenFanOut regenerates the layer-l events of the previous layer's
// message-change records over this engine's arcs: for each record in node
// order, events to the source's out-neighbors, skipping arcs inserted this
// batch (their changed-edge events already carry the new message — the
// duplicate-event rule of Sec. II-B2). The new message is read from the
// live (or ghost) row, and an accumulative diff is computed locally; it is
// bitwise identical on every shard (same Old/New bits, same elementwise
// subtraction), so accumulative sums see the exact payloads a single engine
// would.
func (e *Engine) regenFanOut(evts []Event, l int, recs []MessageChange) []Event {
	agg := e.model.Layers[l].Agg()
	fetched := 0
	for _, r := range recs {
		nbrs := e.g.OutNeighbors(r.Node)
		if len(nbrs) == 0 {
			continue
		}
		newM := e.state.M[l].Row(int(r.Node))
		// Reserve the worst-case capacity up front: high-degree fan-out
		// would otherwise pay repeated slice growth inside the loop.
		if agg.Monotonic() {
			evts = slices.Grow(evts, 2*len(nbrs))
			for _, v := range nbrs {
				if _, skip := e.insArcs[[2]graph.NodeID{r.Node, v}]; skip {
					continue
				}
				fetched += 2 * len(newM)
				evts = append(evts,
					Event{Op: OpDel, Target: v, Payload: e.payload(r.Old)},
					Event{Op: OpAdd, Target: v, Payload: e.payload(newM)})
			}
		} else {
			diff := e.arena.alloc(len(newM))
			tensor.Sub(diff, newM, r.Old)
			evts = slices.Grow(evts, len(nbrs))
			for _, v := range nbrs {
				if _, skip := e.insArcs[[2]graph.NodeID{r.Node, v}]; skip {
					continue
				}
				fetched += len(diff)
				evts = append(evts, Event{Op: OpUpdate, Target: v, Payload: e.payload(diff)})
			}
		}
	}
	e.c.FetchVec(fetched)
	return evts
}

// indexDeltaArcs records which arcs this batch inserts (propagation from
// an affected source skips them — the changed-edge event carries the new
// message already) and per-node in-degree deltas (the mean aggregator's
// incremental formula needs the previous degree). The maps are created on
// the first non-empty delta and cleared in place afterwards; vertex-only
// batches never pay for them. Shared by Apply and BeginRound.
func (e *Engine) indexDeltaArcs(delta graph.Delta) {
	if len(e.insArcs) > 0 {
		clear(e.insArcs)
	}
	if len(e.degDelta) > 0 {
		clear(e.degDelta)
	}
	if len(delta) == 0 {
		return
	}
	if e.insArcs == nil {
		e.insArcs = make(map[[2]graph.NodeID]struct{})
		e.degDelta = make(map[graph.NodeID]int)
	}
	for _, ch := range delta {
		arcs, na := e.arcsOf(ch)
		for _, a := range arcs[:na] {
			if ch.Insert {
				e.insArcs[a] = struct{}{}
				e.degDelta[a[1]]++
			} else {
				e.degDelta[a[1]]--
			}
		}
	}
}
