package inkstream

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestSplitRoundMatchesApply drives an all-local partitioned engine through
// the split-layer round protocol under an adversarial boundary mask (every
// third vertex) and demands bitwise-identical state against a plain engine:
// splitting a layer into boundary and interior phases moves the schedule,
// never the values (DESIGN.md §13). Runs every model × aggregator, like
// TestRoundProtocolMatchesApply.
func TestSplitRoundMatchesApply(t *testing.T) {
	for _, name := range []string{"GCN", "SAGE", "GIN"} {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean, gnn.AggSum} {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(43))
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
				ink, err := NewFromState(model, part.ShardGraph(g, 0), plain.State().Clone(), nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := ink.SetPartitionLocal(part.LocalMask(0)); err != nil {
					t.Fatal(err)
				}
				// An arbitrary mask: correctness must not depend on the mask
				// meaning anything (the router's real mask is an optimisation
				// hint, not a correctness input).
				boundary := make([]bool, n)
				for v := range boundary {
					boundary[v] = v%3 == 0
				}
				if err := ink.SetPartitionBoundary(boundary); err != nil {
					t.Fatal(err)
				}

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
						}
					}
					if err := plain.Apply(delta, vups); err != nil {
						t.Fatalf("step %d: plain Apply: %v", step, err)
					}
					driveRound(t, ink, expandDelta(delta), vups)
					if !plain.State().Equal(ink.State()) {
						t.Fatalf("step %d: split round protocol diverged from Apply", step)
					}
				}
			})
		}
	}
}

// TestSplitRoundNilMask pins the degenerate masks: with no boundary mask the
// whole layer runs in the boundary phase (the split is a no-op), and with an
// all-true mask the interior phase is empty — both stay bit-exact.
func TestSplitRoundNilMask(t *testing.T) {
	for _, mask := range []string{"nil", "all"} {
		t.Run(mask, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			const n, featLen = 40, 5
			g := randomGraph(rng, n, 100)
			x := tensor.RandMatrix(rng, n, featLen, 1)
			model := buildModel(rng, "SAGE", featLen, gnn.AggMax)

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
			if mask == "all" {
				all := make([]bool, n)
				for v := range all {
					all[v] = true
				}
				if err := ink.SetPartitionBoundary(all); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 4; step++ {
				delta := graph.RandomDelta(rng, plain.Graph(), 4)
				if err := plain.Apply(delta, nil); err != nil {
					t.Fatal(err)
				}
				driveRound(t, ink, expandDelta(delta), nil)
				if !plain.State().Equal(ink.State()) {
					t.Fatalf("step %d: diverged (mask=%s)", step, mask)
				}
			}
		})
	}
}

// TestSplitRoundSequencing pins the split-phase state machine: interior
// without boundary, boundary twice in a row, FinishRound mid-split and
// mid-round boundary-mask changes are all rejected.
func TestSplitRoundSequencing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, featLen = 20, 4
	g := randomGraph(rng, n, 40)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "GCN", featLen, gnn.AggMax)

	part, err := graph.NewHashPartition(n, 1)
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
	if _, err := ink.RoundLayerInterior(); err == nil {
		t.Fatal("RoundLayerInterior accepted without an open round")
	}
	if _, err := ink.BeginRound(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ink.RoundLayerInterior(); err == nil {
		t.Fatal("RoundLayerInterior accepted without a boundary phase")
	}
	if _, err := ink.RoundLayerBoundary(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ink.RoundLayerBoundary(1, nil); err == nil {
		t.Fatal("RoundLayerBoundary accepted with the previous interior pending")
	}
	if err := ink.FinishRound(); err == nil {
		t.Fatal("FinishRound accepted mid-split")
	}
	if err := ink.SetPartitionBoundary(nil); err == nil {
		t.Fatal("SetPartitionBoundary accepted mid-round")
	}
	if _, err := ink.RoundLayerInterior(); err != nil {
		t.Fatal(err)
	}
	for l := 1; l < model.NumLayers(); l++ {
		if _, err := ink.RoundLayerBoundary(l, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ink.RoundLayerInterior(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ink.FinishRound(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostRowHydration pins the hydration API: MessageRow reads the live
// message row, SetGhostMessageRow adopts it on another shard's engine for
// remote vertices only, and both reject out-of-range layers.
func TestGhostRowHydration(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, featLen = 20, 4
	g := randomGraph(rng, n, 40)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := buildModel(rng, "GCN", featLen, gnn.AggMax)

	part, err := graph.NewHashPartition(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s int) *Engine {
		e, err := New(model, part.ShardGraph(g, s), x.Clone(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetPartitionLocal(part.LocalMask(s)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e0, e1 := mk(0), mk(1)

	var local0 graph.NodeID = -1
	for v := 0; v < n; v++ {
		if part.Owner(graph.NodeID(v)) == 0 {
			local0 = graph.NodeID(v)
			break
		}
	}
	if local0 < 0 {
		t.Fatal("shard 0 empty")
	}
	row, err := e0.MessageRow(0, local0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SetGhostMessageRow(0, local0, row); err != nil {
		t.Fatalf("hydrating remote row: %v", err)
	}
	got, err := e1.MessageRow(0, local0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(row) {
		t.Fatal("hydrated ghost row does not match the owner's row")
	}
	if err := e0.SetGhostMessageRow(0, local0, row); err == nil {
		t.Fatal("SetGhostMessageRow accepted a local (authoritative) row")
	}
	if _, err := e0.MessageRow(model.NumLayers(), local0); err == nil {
		t.Fatal("MessageRow accepted an out-of-range layer")
	}
	if err := e1.SetGhostMessageRow(-1, local0, row); err == nil {
		t.Fatal("SetGhostMessageRow accepted an out-of-range layer")
	}
}
