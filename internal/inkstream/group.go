package inkstream

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// group collects every event heading to one target node in one layer
// (Sec. II-B1). Monotonic layers keep the raw Del/Add payload lists (the
// reset-condition check needs them reduced but the recompute fallback does
// not); accumulative layers are reduced on the fly into a running sum.
type group struct {
	target graph.NodeID
	// Monotonic payloads.
	dels, adds []tensor.Vector
	// Accumulative running sum; nil until the first OpUpdate event. nUpd
	// counts the folded OpUpdate events. sumBuf retains the allocation
	// across epochs.
	sum    tensor.Vector
	sumBuf tensor.Vector
	nUpd   int
	// User events routed to hooks.
	user []UserEvent
}

// reset clears a recycled group for a new target, keeping slice capacity.
func (g *group) reset(target graph.NodeID) {
	g.target = target
	g.dels = g.dels[:0]
	g.adds = g.adds[:0]
	g.sum = nil
	g.nUpd = 0
	g.user = g.user[:0]
}

// ensureSum activates the zeroed running sum of dimension dim, reusing the
// retained buffer when it fits.
func (g *group) ensureSum(dim int) {
	if cap(g.sumBuf) < dim {
		g.sumBuf = make(tensor.Vector, dim)
	}
	g.sum = g.sumBuf[:dim]
	for i := range g.sum {
		g.sum[i] = 0
	}
}

// hasNative reports whether any native (non-user) event targeted the node.
func (g *group) hasNative() bool {
	return len(g.dels) > 0 || len(g.adds) > 0 || g.sum != nil
}

// gshard is one shard of the grouping table: a private freelist of group
// structs plus the count of entries live this epoch. In sequential routing
// only shard 0 is used; in sharded routing each shard owns a contiguous
// block of target IDs, and the worker processing a shard is the only
// goroutine that ever touches its freelist (or the stamp/idx entries of its
// targets) — no cross-shard writes, no locks.
type gshard struct {
	groups []*group // freelist; groups[:used] are live this epoch
	used   int
}

// grouper performs the grouping pass: it buckets a layer's event list by
// target node and reduces per-target where possible. It is an engine-owned
// epoch-stamped table: the per-node stamp/idx arrays are reused across
// layers and Apply calls without clearing (the stamp distinguishes epochs),
// and group structs — including their payload-slice and sum-buffer capacity
// — are recycled from per-shard freelists, so steady-state grouping does
// not allocate and involves no map operations. Grouping is the per-event
// hot path; large epochs route in parallel via groupSharded, small ones
// sequentially through addNative/addUser + finish.
type grouper struct {
	stamp []uint32
	idx   []int32
	epoch uint32

	// shards hold the per-target groups. Targets map to shards by ID block:
	// target>>shift is the owning shard, a partition chosen per epoch so the
	// shard order IS the target order (concatenating per-shard sorted groups
	// yields the globally sorted order the engine's determinism relies on).
	shards  []gshard
	nShards int  // shards active this epoch (1 = sequential routing)
	shift   uint // target >> shift == owning shard this epoch
	dim     int

	// Sharded-mode scratch, reused across epochs.
	out              []*group // concatenated sorted groups
	shardOf          []uint8  // per-event owner (partition pass 1)
	counts           []int32  // per-chunk per-shard counts, then cursors
	permN, permU     []int32  // stable per-shard event orderings
	boundsN, boundsU []int32  // shard region offsets into permN/permU
}

func newGrouper(n int) *grouper {
	return &grouper{
		stamp:  make([]uint32, n),
		idx:    make([]int32, n),
		shards: make([]gshard, 1),
	}
}

// begin opens a new sequential epoch for a layer whose messages have the
// given dimension.
func (gr *grouper) begin(dim int) {
	gr.epoch++
	gr.dim = dim
	gr.nShards = 1
	for s := range gr.shards {
		gr.shards[s].used = 0
	}
}

// beginSharded opens a new epoch routed across S shards. The shard of a
// target is target>>shift with shift chosen so the shard index stays below
// S: a power-of-two block partition of the ID space. Blocks are monotonic
// in target ID, which is what lets finishSharded produce the global sorted
// order by concatenation; the price is up-to-2× shard-size imbalance, which
// the 2×-workers shard count (see Engine.shardCount) absorbs.
func (gr *grouper) beginSharded(dim, S int) {
	gr.begin(dim)
	for len(gr.shards) < S {
		gr.shards = append(gr.shards, gshard{})
	}
	gr.nShards = S
	bound := len(gr.stamp)
	shift := uint(0)
	for bound > 1 && (bound-1)>>shift >= S {
		shift++
	}
	gr.shift = shift
}

// ensure grows the per-node tables after AddNode.
func (gr *grouper) ensure(n int) {
	for len(gr.stamp) < n {
		gr.stamp = append(gr.stamp, 0)
		gr.idx = append(gr.idx, 0)
	}
}

// getIn returns target's group in shard sh, creating it from the shard's
// freelist on first sight this epoch. In sharded epochs it must only be
// called by the worker owning sh (stamp/idx entries of sh's targets are
// written by that worker alone).
func (gr *grouper) getIn(sh *gshard, target graph.NodeID) *group {
	if gr.stamp[target] == gr.epoch {
		return sh.groups[gr.idx[target]]
	}
	gr.stamp[target] = gr.epoch
	gr.idx[target] = int32(sh.used)
	var g *group
	if sh.used < len(sh.groups) {
		g = sh.groups[sh.used]
	} else {
		g = &group{}
		sh.groups = append(sh.groups, g)
	}
	sh.used++
	g.reset(target)
	return g
}

// addNativeIn folds one native event into its target's group in sh. For
// OpUpdate the payload is summed immediately — the paper's reduction of
// same-operation events — so the group holds one vector regardless of
// fan-in.
func (gr *grouper) addNativeIn(sh *gshard, e Event) {
	g := gr.getIn(sh, e.Target)
	switch e.Op {
	case OpAdd:
		g.adds = append(g.adds, e.Payload)
	case OpDel:
		g.dels = append(g.dels, e.Payload)
	case OpUpdate:
		if g.sum == nil {
			g.ensureSum(gr.dim)
		}
		tensor.Add(g.sum, g.sum, e.Payload)
		g.nUpd++
	}
}

// addUserIn buckets one user event into sh.
func (gr *grouper) addUserIn(sh *gshard, e UserEvent) {
	g := gr.getIn(sh, e.Target)
	g.user = append(g.user, e)
}

// addNative folds one native event on the sequential path (shard 0).
func (gr *grouper) addNative(e Event) { gr.addNativeIn(&gr.shards[0], e) }

// addUser buckets one user event on the sequential path (shard 0).
func (gr *grouper) addUser(e UserEvent) { gr.addUserIn(&gr.shards[0], e) }

// finish returns the sequential epoch's per-target groups sorted by target
// ID, applying the user-hook reduction. Sorting makes the whole engine
// deterministic for a fixed worker count: groups are processed in chunks
// of this order and their emitted events concatenated in the same order.
func (gr *grouper) finish(hooks UserHooks) []*group {
	sh := &gr.shards[0]
	live := sh.groups[:sh.used]
	sort.Slice(live, func(i, j int) bool { return live[i].target < live[j].target })
	// Re-sync the index array with the sorted freelist order so get()
	// stays coherent if more events arrive within this epoch.
	for i, g := range live {
		gr.idx[g.target] = int32(i)
	}
	for _, g := range live {
		if len(g.user) > 0 {
			g.user = hooks.Reduce(g.target, g.user)
		}
	}
	return live
}

// partChunk is the event-chunk granularity of the partition passes: large
// enough that a chunk's per-shard count row amortises, small enough that a
// typical sharded epoch still yields parallel work.
const partChunk = 4096

// partition computes a stable shard partition of n items: on return,
// perm[bounds[s]:bounds[s+1]] lists the item indices owned by shard s in
// their original order. Two pool passes: pass 1 records every item's owner
// and per-chunk per-shard counts; a sequential prefix sum turns the counts
// into disjoint write cursors; pass 2 scatters the indices. Chunks write
// disjoint count rows and disjoint perm regions, so both passes are
// race-free, and cursors are assigned in chunk order, so the per-shard
// order equals the arrival order — the property that keeps sharded
// grouping bit-exact with sequential grouping.
func (gr *grouper) partition(n int, targetAt func(int) graph.NodeID, perm, bounds []int32) ([]int32, []int32) {
	S := gr.nShards
	nChunks := (n + partChunk - 1) / partChunk
	if cap(perm) < n {
		perm = make([]int32, n)
	}
	perm = perm[:n]
	if cap(bounds) < S+1 {
		bounds = make([]int32, S+1)
	}
	bounds = bounds[:S+1]
	if cap(gr.shardOf) < n {
		gr.shardOf = make([]uint8, n)
	}
	so := gr.shardOf[:n]
	if cap(gr.counts) < nChunks*S {
		gr.counts = make([]int32, nChunks*S)
	}
	counts := gr.counts[:nChunks*S]
	for i := range counts {
		counts[i] = 0
	}
	shift := gr.shift
	tensor.ParallelForGrain(nChunks, partChunk, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			base, end := c*partChunk, (c+1)*partChunk
			if end > n {
				end = n
			}
			cnt := counts[c*S : c*S+S]
			for i := base; i < end; i++ {
				s := uint8(uint32(targetAt(i)) >> shift)
				so[i] = s
				cnt[s]++
			}
		}
	})
	var total int32
	for s := 0; s < S; s++ {
		bounds[s] = total
		for c := 0; c < nChunks; c++ {
			k := c*S + s
			v := counts[k]
			counts[k] = total
			total += v
		}
	}
	bounds[S] = total
	tensor.ParallelForGrain(nChunks, partChunk, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			base, end := c*partChunk, (c+1)*partChunk
			if end > n {
				end = n
			}
			cur := counts[c*S : c*S+S]
			for i := base; i < end; i++ {
				s := so[i]
				perm[cur[s]] = int32(i)
				cur[s]++
			}
		}
	})
	return perm, bounds
}

// groupSharded routes one sharded epoch's native and user events across the
// shards on the tensor worker pool and returns the per-target groups in
// globally sorted target order — the same group order, per-group contents
// and within-group event order the sequential addNative/finish path
// produces, so the two paths are bit-exact (DESIGN.md §9). The user-hook
// reduction runs on the calling goroutine: the UserHooks contract only
// promises concurrency-safety for distinct-target Apply calls.
func (gr *grouper) groupSharded(native []Event, user []UserEvent, hooks UserHooks) []*group {
	S := gr.nShards
	gr.permN, gr.boundsN = gr.partition(len(native),
		func(i int) graph.NodeID { return native[i].Target }, gr.permN, gr.boundsN)
	permN, boundsN := gr.permN, gr.boundsN
	gr.permU, gr.boundsU = gr.partition(len(user),
		func(i int) graph.NodeID { return user[i].Target }, gr.permU, gr.boundsU)
	permU, boundsU := gr.permU, gr.boundsU

	// Per-index grain: one shard's routing cost scales with its share of the
	// events; ~8 element-units per event keeps the MinChunkWork floor from
	// serialising epochs that just cleared the sharding threshold.
	grain := 8 * ((len(native)+len(user))/S + 1)
	tensor.ParallelForGrain(S, grain, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sh := &gr.shards[s]
			for _, i := range permN[boundsN[s]:boundsN[s+1]] {
				gr.addNativeIn(sh, native[i])
			}
			for _, i := range permU[boundsU[s]:boundsU[s+1]] {
				gr.addUserIn(sh, user[i])
			}
			live := sh.groups[:sh.used]
			sort.Slice(live, func(a, b int) bool { return live[a].target < live[b].target })
		}
	})

	// Shard blocks are monotonic in target ID, so concatenating the sorted
	// shards yields the global sorted order. No idx re-sync: a sharded epoch
	// never receives events after grouping (unlike finish, which stays
	// coherent for intra-epoch re-entry).
	out := gr.out[:0]
	for s := 0; s < S; s++ {
		sh := &gr.shards[s]
		out = append(out, sh.groups[:sh.used]...)
	}
	for _, g := range out {
		if len(g.user) > 0 {
			g.user = hooks.Reduce(g.target, g.user)
		}
	}
	gr.out = out
	return out
}
