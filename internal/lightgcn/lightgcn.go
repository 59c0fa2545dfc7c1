// Package lightgcn implements incremental inference for LightGCN — the
// weighted-sum aggregation case the paper's expressiveness discussion
// calls out: "Aggregation with weighted sum can also be supported once
// only graph topology information is used for the weights, like
// LightGCN".
//
// LightGCN propagates embeddings with symmetric-normalised weighted sums
// and no per-layer transform or activation:
//
//	h_{l+1,u} = Σ_{v∈N(u)} h_{l,v} / √(d_u·d_v)
//	out_u     = mean(h_{0,u}, …, h_{K,u})
//
// Because the weights depend on the endpoint degrees, an edge change
// re-weights *every* edge incident to its endpoints. The incremental
// engine handles this by factoring the weight: with the scaled message
// m̃_{l,v} = h_{l,v}/√d_v and the running sum S_{l,u} = Σ m̃_{l,v},
// the layer output is h_{l+1,u} = S_{l,u}/√d_u. A degree change at v then
// reduces to an ordinary message change (m̃ is recomputed and the deltas
// propagate as events), and a degree change at u to a rescale of the
// cached S — the same cancel-old/add-new event discipline as the core
// engine, specialised to the fully reversible weighted sum.
package lightgcn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Engine maintains LightGCN embeddings over a dynamic graph.
type Engine struct {
	g *graph.Graph
	k int
	c *metrics.Counters

	// H[l] is the layer-l embedding (H[0] = input features); S[l] the
	// cached running weighted sums feeding H[l+1]; out the layer-combined
	// output.
	h   []*tensor.Matrix
	s   []*tensor.Matrix
	out *tensor.Matrix
}

// New bootstraps an engine with a full propagation over g. The graph is
// used (and mutated by Update) by reference.
func New(g *graph.Graph, x *tensor.Matrix, layers int, c *metrics.Counters) (*Engine, error) {
	if layers < 1 {
		return nil, fmt.Errorf("lightgcn: layers %d < 1", layers)
	}
	if x.Rows != g.NumNodes() {
		return nil, fmt.Errorf("lightgcn: features for %d nodes, graph has %d", x.Rows, g.NumNodes())
	}
	e := &Engine{g: g, k: layers, c: c}
	n := g.NumNodes()
	d := x.Cols
	e.h = make([]*tensor.Matrix, layers+1)
	e.s = make([]*tensor.Matrix, layers)
	e.h[0] = x.Clone()
	for l := 0; l < layers; l++ {
		e.h[l+1] = tensor.NewMatrix(n, d)
		e.s[l] = tensor.NewMatrix(n, d)
	}
	e.out = tensor.NewMatrix(n, d)
	e.fullPropagate()
	return e, nil
}

// Graph exposes the maintained graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Layers returns K, the propagation depth.
func (e *Engine) Layers() int { return e.k }

// Output returns the maintained layer-combined embeddings.
func (e *Engine) Output() *tensor.Matrix { return e.out }

// Layer returns the maintained layer-l embedding matrix (l in [0, K]).
func (e *Engine) Layer(l int) *tensor.Matrix { return e.h[l] }

func invSqrtDeg(deg int) float32 {
	if deg <= 0 {
		return 0
	}
	return float32(1 / math.Sqrt(float64(deg)))
}

// fullPropagate recomputes every layer and the combined output from
// scratch.
func (e *Engine) fullPropagate() {
	n := e.g.NumNodes()
	inv := make([]float32, n)
	for u := 0; u < n; u++ {
		inv[u] = invSqrtDeg(e.g.InDegree(graph.NodeID(u)))
	}
	dim := e.h[0].Cols
	for l := 0; l < e.k; l++ {
		hl, sl, hn := e.h[l], e.s[l], e.h[l+1]
		tensor.ParallelFor(n, func(lo, hi int) {
			scaled := make(tensor.Vector, dim)
			for u := lo; u < hi; u++ {
				dst := sl.Row(u)
				for i := range dst {
					dst[i] = 0
				}
				for _, v := range e.g.InNeighbors(graph.NodeID(u)) {
					tensor.Scale(scaled, inv[v], hl.Row(int(v)))
					tensor.Add(dst, dst, scaled)
				}
				tensor.Scale(hn.Row(u), inv[u], dst)
				e.c.FetchVec(dim * e.g.InDegree(graph.NodeID(u)))
				e.c.AddFLOPs(int64(2 * dim * e.g.InDegree(graph.NodeID(u))))
				e.c.VisitNode()
			}
		})
	}
	e.recombine(nil)
}

// recombine refreshes the combined output; nodes == nil means all nodes.
func (e *Engine) recombine(nodes []graph.NodeID) {
	dim := e.out.Cols
	scale := 1 / float32(e.k+1)
	combineRow := func(u int) {
		dst := e.out.Row(u)
		for i := range dst {
			dst[i] = 0
		}
		for l := 0; l <= e.k; l++ {
			tensor.Add(dst, dst, e.h[l].Row(u))
		}
		tensor.Scale(dst, scale, dst)
		e.c.StoreVec(dim)
	}
	if nodes == nil {
		tensor.ParallelFor(e.out.Rows, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				combineRow(u)
			}
		})
		return
	}
	for _, u := range nodes {
		combineRow(int(u))
	}
}

// Update applies one ΔG batch and incrementally refreshes all cached
// layers and the combined output. On validation error nothing is mutated.
func (e *Engine) Update(delta graph.Delta) error {
	if err := delta.Validate(e.g); err != nil {
		return err
	}
	// Previous in-degrees of every node whose degree changes.
	degOld := map[graph.NodeID]int{}
	record := func(u graph.NodeID) {
		if _, ok := degOld[u]; !ok {
			degOld[u] = e.g.InDegree(u)
		}
	}
	inserted := map[[2]graph.NodeID]struct{}{}
	for _, ch := range delta {
		arcs := [][2]graph.NodeID{{ch.U, ch.V}}
		if e.g.Undirected {
			arcs = append(arcs, [2]graph.NodeID{ch.V, ch.U})
		}
		for _, a := range arcs {
			record(a[1])
			if ch.Insert {
				inserted[a] = struct{}{}
			}
		}
	}
	if err := delta.Apply(e.g); err != nil {
		return err
	}

	// changed[u] tracks whether H_l[u] differs from the previous
	// timestamp at the layer currently being processed; oldH keeps the
	// previous rows of exactly those nodes. Degree-changed nodes have a
	// changed scaled message even at layer 0.
	changed := map[graph.NodeID]bool{}
	oldH := map[graph.NodeID]tensor.Vector{}
	dirtyOut := map[graph.NodeID]struct{}{}

	for l := 0; l < e.k; l++ {
		changed, oldH = e.updateLayer(l, delta, inserted, degOld, changed, oldH)
		for u := range changed {
			dirtyOut[u] = struct{}{}
		}
	}
	dirty := make([]graph.NodeID, 0, len(dirtyOut))
	for u := range dirtyOut {
		dirty = append(dirty, u)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	e.recombine(dirty)
	return nil
}

// updateLayer processes layer l: it turns message changes (embedding
// changes from the previous layer, degree changes, and the changed edges
// themselves) into S-sum deltas, applies them, and rescales outputs.
// Returns the set of nodes whose H_{l+1} changed together with their old
// rows.
func (e *Engine) updateLayer(l int, delta graph.Delta, inserted map[[2]graph.NodeID]struct{}, degOld map[graph.NodeID]int, changed map[graph.NodeID]bool, oldH map[graph.NodeID]tensor.Vector) (map[graph.NodeID]bool, map[graph.NodeID]tensor.Vector) {
	dim := e.h[0].Cols
	hl := e.h[l]

	oldScaled := func(u graph.NodeID) tensor.Vector {
		row := hl.Row(int(u))
		if prev, ok := oldH[u]; ok {
			row = prev
		}
		d := e.g.InDegree(u)
		if prev, ok := degOld[u]; ok {
			d = prev
		}
		out := make(tensor.Vector, dim)
		tensor.Scale(out, invSqrtDeg(d), row)
		return out
	}
	newScaled := func(u graph.NodeID) tensor.Vector {
		out := make(tensor.Vector, dim)
		tensor.Scale(out, invSqrtDeg(e.g.InDegree(u)), hl.Row(int(u)))
		return out
	}

	// Sources whose scaled message m̃_l changed: embedding-changed nodes
	// plus degree-changed nodes.
	sources := map[graph.NodeID]struct{}{}
	for u := range changed {
		sources[u] = struct{}{}
	}
	for u := range degOld {
		sources[u] = struct{}{}
	}

	// Accumulate S deltas per target.
	acc := map[graph.NodeID]tensor.Vector{}
	addDelta := func(target graph.NodeID, v tensor.Vector, sign float32) {
		dst, ok := acc[target]
		if !ok {
			dst = make(tensor.Vector, dim)
			acc[target] = dst
		}
		tensor.Axpy(dst, sign, v)
		e.c.FetchVec(dim)
	}

	for u := range sources {
		oldM := oldScaled(u)
		newM := newScaled(u)
		if oldM.Equal(newM) {
			continue
		}
		diff := make(tensor.Vector, dim)
		tensor.Sub(diff, newM, oldM)
		for _, v := range e.g.OutNeighbors(u) {
			if _, skip := inserted[[2]graph.NodeID{u, v}]; skip {
				continue
			}
			addDelta(v, diff, 1)
		}
	}
	// Changed edges: cancel the old scaled message over removed arcs, add
	// the new one over inserted arcs.
	for _, ch := range delta {
		arcs := [][2]graph.NodeID{{ch.U, ch.V}}
		if e.g.Undirected {
			arcs = append(arcs, [2]graph.NodeID{ch.V, ch.U})
		}
		for _, a := range arcs {
			if ch.Insert {
				addDelta(a[1], newScaled(a[0]), 1)
			} else {
				addDelta(a[1], oldScaled(a[0]), -1)
			}
		}
	}

	// Targets: nodes with S deltas, plus degree-changed nodes (their
	// output rescales even with an unchanged S).
	targets := map[graph.NodeID]struct{}{}
	for u := range acc {
		targets[u] = struct{}{}
	}
	for u := range degOld {
		targets[u] = struct{}{}
	}

	nextChanged := map[graph.NodeID]bool{}
	nextOld := map[graph.NodeID]tensor.Vector{}
	hn := e.h[l+1]
	for u := range targets {
		if d, ok := acc[u]; ok {
			tensor.Add(e.s[l].Row(int(u)), e.s[l].Row(int(u)), d)
			e.c.StoreVec(dim)
		}
		row := hn.Row(int(u))
		prev := row.Clone()
		tensor.Scale(row, invSqrtDeg(e.g.InDegree(u)), e.s[l].Row(int(u)))
		e.c.VisitNode()
		if !prev.Equal(row) {
			nextChanged[u] = true
			nextOld[u] = prev
		}
	}
	return nextChanged, nextOld
}

// UpdateVertex replaces node u's input features and propagates the change.
func (e *Engine) UpdateVertex(u graph.NodeID, x tensor.Vector) error {
	if int(u) < 0 || int(u) >= e.g.NumNodes() {
		return fmt.Errorf("lightgcn: %w (%d)", graph.ErrBadNode, u)
	}
	if len(x) != e.h[0].Cols {
		return fmt.Errorf("lightgcn: feature dim %d, engine wants %d", len(x), e.h[0].Cols)
	}
	prev := e.h[0].Row(int(u)).Clone()
	e.h[0].SetRow(int(u), x)
	if prev.Equal(x) {
		return nil
	}
	changed := map[graph.NodeID]bool{u: true}
	oldH := map[graph.NodeID]tensor.Vector{u: prev}
	dirty := map[graph.NodeID]struct{}{u: {}}
	for l := 0; l < e.k; l++ {
		changed, oldH = e.updateLayer(l, nil, nil, nil, changed, oldH)
		for w := range changed {
			dirty[w] = struct{}{}
		}
	}
	nodes := make([]graph.NodeID, 0, len(dirty))
	for w := range dirty {
		nodes = append(nodes, w)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	e.recombine(nodes)
	return nil
}
