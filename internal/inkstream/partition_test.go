package inkstream

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// expandDelta mirrors the shard router: every undirected edge change becomes
// both directed arcs, (u,v) then (v,u) — the same order arcsOf walks them.
func expandDelta(delta graph.Delta) graph.Delta {
	out := make(graph.Delta, 0, 2*len(delta))
	for _, ch := range delta {
		out = append(out,
			graph.EdgeChange{U: ch.U, V: ch.V, Insert: ch.Insert},
			graph.EdgeChange{U: ch.V, V: ch.U, Insert: ch.Insert})
	}
	return out
}

// driveRound pushes one batch through the round protocol exactly the way
// the shard router does: BeginRound, then per layer RoundLayerBoundary
// followed by RoundLayerInterior, with the two record slices concatenated
// into a caller-owned buffer and node-sorted like the router's overlapped
// merge, then FinishRound. The boundary slice must survive the interior
// call untouched (the overlap contract), so it is only copied out
// afterwards. With no boundary mask installed the whole layer runs in the
// boundary phase.
func driveRound(t *testing.T, e *Engine, delta graph.Delta, vups []VertexUpdate) {
	t.Helper()
	recs, err := e.BeginRound(delta, vups)
	if err != nil {
		t.Fatalf("BeginRound: %v", err)
	}
	merged := append([]MessageChange(nil), recs...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Node < merged[j].Node })
	for l := 0; l < e.model.NumLayers(); l++ {
		bnd, err := e.RoundLayerBoundary(l, merged)
		if err != nil {
			t.Fatalf("RoundLayerBoundary %d: %v", l, err)
		}
		bndCopy := append([]MessageChange(nil), bnd...)
		intr, err := e.RoundLayerInterior()
		if err != nil {
			t.Fatalf("RoundLayerInterior %d: %v", l, err)
		}
		// The boundary slice must still hold the same records after the
		// interior phase ran — the router reads it concurrently.
		for i := range bndCopy {
			if bnd[i].Node != bndCopy[i].Node || !bnd[i].New.Equal(bndCopy[i].New) || !bnd[i].Old.Equal(bndCopy[i].Old) {
				t.Fatalf("layer %d: boundary record %d mutated by interior phase", l, i)
			}
		}
		merged = append(append(merged[:0], bnd...), intr...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].Node < merged[j].Node })
	}
	if err := e.FinishRound(); err != nil {
		t.Fatalf("FinishRound: %v", err)
	}
	e.PublishSnapshot()
}

// TestRoundProtocolMatchesApply drives an all-local partitioned engine (one
// shard owning everything, over the directed expansion of the same graph)
// through the round protocol and demands bitwise-identical state against a
// plain engine applying the same stream — for every model and aggregator,
// accumulative ones included. This is the single-engine half of the shard
// bit-exactness argument (DESIGN.md §11.3): the regenerated event order must
// equal Apply's native order exactly.
func TestRoundProtocolMatchesApply(t *testing.T) {
	for _, name := range []string{"GCN", "SAGE", "GIN"} {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean, gnn.AggSum} {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				const n, featLen = 60, 6
				g := randomGraph(rng, n, 150)
				x := tensor.RandMatrix(rng, n, featLen, 1)
				model := buildModel(rng, name, featLen, kind)

				plain, err := New(model, g.Clone(), x.Clone(), nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				part, err := graph.NewHashPartition(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				// Bootstrap from the original graph's inference, like the
				// router does: the shard graph's adjacency order differs, so
				// re-inferring over it would land accumulative sums on
				// different ulps.
				ink, err := NewFromState(model, part.ShardGraph(g, 0), plain.State().Clone(), nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
					t.Fatal(err)
				}

				xCur := x.Clone()
				for step := 0; step < 8; step++ {
					delta := graph.RandomDelta(rng, plain.Graph(), 4)
					var vups []VertexUpdate
					if step%2 == 1 {
						nodes := rng.Perm(n)[:3]
						sort.Ints(nodes)
						for _, v := range nodes {
							vups = append(vups, VertexUpdate{
								Node: graph.NodeID(v),
								X:    tensor.RandVector(rng, featLen, 1),
							})
							copy(xCur.Row(v), vups[len(vups)-1].X)
						}
					}
					if err := plain.Apply(delta, vups); err != nil {
						t.Fatalf("step %d: plain Apply: %v", step, err)
					}
					driveRound(t, ink, expandDelta(delta), vups)
					if !plain.State().Equal(ink.State()) {
						t.Fatalf("step %d: round-protocol state diverged from Apply", step)
					}
				}
				checkEquivalence(t, plain, xCur, kind, "plain")
			})
		}
	}
}

// TestRoundTimingStats pins the round-profiler hooks: with timing on, every
// stage leaves a RoundStageStats behind (ghost refresh counted for remote
// records only, events counted for the staged layer list), FinishRound
// clears it, and running the same stream with timing on stays bit-exact.
func TestRoundTimingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, featLen = 40, 5
	g := randomGraph(rng, n, 100)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "SAGE", featLen, gnn.AggMean)

	plain, err := New(model, g.Clone(), x.Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := graph.NewHashPartition(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ink, err := NewFromState(model, part.ShardGraph(g, 0), plain.State().Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
		t.Fatal(err)
	}
	ink.SetRoundTiming(true)

	nodes := rng.Perm(n)[:3]
	sort.Ints(nodes)
	var vups []VertexUpdate
	for _, v := range nodes {
		vups = append(vups, VertexUpdate{Node: graph.NodeID(v), X: tensor.RandVector(rng, featLen, 1)})
	}
	delta := graph.RandomDelta(rng, plain.Graph(), 4)
	if err := plain.Apply(delta, vups); err != nil {
		t.Fatal(err)
	}

	recs, err := ink.BeginRound(expandDelta(delta), vups)
	if err != nil {
		t.Fatal(err)
	}
	if st := ink.LastStageStats(); st.Events != len(recs) || st.GhostRows != 0 {
		t.Fatalf("begin stats = %+v, want %d events", st, len(recs))
	}
	merged := append([]MessageChange(nil), recs...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Node < merged[j].Node })
	for l := 0; l < model.NumLayers(); l++ {
		bnd, err := ink.RoundLayerBoundary(l, merged)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]MessageChange(nil), bnd...)
		intr, err := ink.RoundLayerInterior()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, intr...)
		st := ink.LastStageStats()
		// All-local shard: every record is local, so no ghost rows.
		if st.GhostRows != 0 {
			t.Fatalf("layer %d: %d ghost rows on an all-local shard", l, st.GhostRows)
		}
		if len(merged) > 0 && st.Events == 0 && l == 0 && len(delta) > 0 {
			t.Fatalf("layer %d: zero events staged for a non-empty round", l)
		}
		merged = append(merged[:0], out...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].Node < merged[j].Node })
	}
	if err := ink.FinishRound(); err != nil {
		t.Fatal(err)
	}
	if st := ink.LastStageStats(); st != (RoundStageStats{}) {
		t.Fatalf("FinishRound left stats %+v", st)
	}
	ink.PublishSnapshot()
	if !plain.State().Equal(ink.State()) {
		t.Fatal("timing-on round diverged from Apply")
	}
}

// TestPartitionedModeRejections pins the mode boundary: a partitioned engine
// refuses the standalone entry points, rejects remote-vertex feature updates
// and out-of-sequence round calls, and a standalone engine refuses the round
// protocol.
func TestPartitionedModeRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, featLen = 20, 4
	g := randomGraph(rng, n, 40)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "GCN", featLen, gnn.AggMax)

	plain, err := New(model, g.Clone(), x.Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.BeginRound(nil, nil); err == nil {
		t.Fatal("BeginRound accepted on a standalone engine")
	}
	if _, err := plain.RoundLayerBoundary(0, nil); err == nil {
		t.Fatal("RoundLayerBoundary accepted without an open round")
	}
	if _, err := plain.RoundLayerInterior(); err == nil {
		t.Fatal("RoundLayerInterior accepted without an open round")
	}
	if err := plain.FinishRound(); err == nil {
		t.Fatal("FinishRound accepted without an open round")
	}

	part, err := graph.NewHashPartition(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	ink, err := New(model, part.ShardGraph(g, 0), x.Clone(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
		t.Fatal(err)
	}
	if err := ink.Apply(nil, nil); !errors.Is(err, errPartitioned) {
		t.Fatalf("Apply on a partitioned engine: %v, want errPartitioned", err)
	}
	if err := ink.UpdateVertices([]VertexUpdate{{Node: 0, X: tensor.RandVector(rng, featLen, 1)}}); !errors.Is(err, errPartitioned) {
		t.Fatalf("UpdateVertices on a partitioned engine: %v, want errPartitioned", err)
	}
	if _, err := ink.AddNode(tensor.RandVector(rng, featLen, 1)); !errors.Is(err, errPartitioned) {
		t.Fatalf("AddNode on a partitioned engine: %v, want errPartitioned", err)
	}
	if ink.Graph().NumNodes() != n || ink.AppliedBatches() != 0 {
		t.Fatal("a rejected standalone call mutated the partitioned engine")
	}
	var remote graph.NodeID = -1
	for v := 0; v < n; v++ {
		if part.Owner(graph.NodeID(v)) != 0 {
			remote = graph.NodeID(v)
			break
		}
	}
	if remote < 0 {
		t.Fatal("partition left shard 1 empty")
	}
	vups := []VertexUpdate{{Node: remote, X: tensor.RandVector(rng, featLen, 1)}}
	if _, err := ink.BeginRound(nil, vups); err == nil {
		t.Fatal("BeginRound accepted a remote vertex update")
	}
	if _, err := ink.BeginRound(nil, nil); err != nil {
		t.Fatalf("opening an empty round: %v", err)
	}
	if _, err := ink.BeginRound(nil, nil); err == nil {
		t.Fatal("BeginRound accepted with a round already open")
	}
	if err := ink.SetPartitionLocal(nil); err == nil {
		t.Fatal("SetPartitionLocal accepted mid-round")
	}
	if err := ink.FinishRound(); err != nil {
		t.Fatal(err)
	}
}
