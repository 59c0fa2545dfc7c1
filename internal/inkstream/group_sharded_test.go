package inkstream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestPartitionStable checks the stable shard partition directly: every
// index lands in its target's shard region, regions are contiguous and in
// shard order, and within a region the original order is preserved — the
// property that keeps sharded grouping bit-exact with sequential grouping.
func TestPartitionStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nodes, S = 1000, 8
	gr := newGrouper(nodes)
	gr.beginSharded(4, S)
	targets := make([]graph.NodeID, 10_000)
	for i := range targets {
		targets[i] = graph.NodeID(rng.Intn(nodes))
	}
	perm, bounds := gr.partition(len(targets),
		func(i int) graph.NodeID { return targets[i] }, nil, nil)
	if got := int(bounds[S]); got != len(targets) {
		t.Fatalf("bounds[%d] = %d, want %d", S, got, len(targets))
	}
	seen := make([]bool, len(targets))
	for s := 0; s < S; s++ {
		prev := int32(-1)
		for _, i := range perm[bounds[s]:bounds[s+1]] {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
			if got := int(uint32(targets[i]) >> gr.shift); got != s {
				t.Fatalf("index %d (target %d) in shard %d, owner is %d", i, targets[i], s, got)
			}
			if i <= prev {
				t.Fatalf("shard %d not stable: index %d after %d", s, i, prev)
			}
			prev = i
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d missing from partition", i)
		}
	}
}

// TestShardedGroupingEquivalence: the sharded event router must be
// bit-exact with the sequential one for every aggregator kind — not just
// within tolerance — because it reproduces the identical group order,
// group contents and within-group event order (DESIGN.md §9).
func TestShardedGroupingEquivalence(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			build := func(shardThreshold int) (*Engine, *tensor.Matrix) {
				rng := rand.New(rand.NewSource(99))
				g := randomGraph(rng, 400, 1600)
				x := tensor.RandMatrix(rng, 400, 6, 1)
				model := gnn.NewGIN(rng, 6, 8, 3, gnn.NewAggregator(kind))
				e, err := New(model, g, x, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				e.shardThreshold = shardThreshold
				return e, x
			}
			// A threshold of 1 forces the sharded router on every layer of
			// the first engine; the second always routes sequentially.
			sharded, _ := build(1)
			seq, _ := build(math.MaxInt)
			drng := rand.New(rand.NewSource(5))
			for batch := 0; batch < 4; batch++ {
				delta := graph.RandomDelta(drng, sharded.Graph(), 80)
				if err := sharded.Update(delta); err != nil {
					t.Fatalf("sharded batch %d: %v", batch, err)
				}
				if err := seq.Update(delta); err != nil {
					t.Fatalf("sequential batch %d: %v", batch, err)
				}
				if !sharded.State().Equal(seq.State()) {
					t.Fatalf("batch %d: sharded state not bit-identical (output max diff %g)",
						batch, sharded.Output().MaxAbsDiff(seq.Output()))
				}
			}
		})
	}
}

// TestShardedGrouperStress drives the sharded router hard enough for the
// race detector to see the pool workers writing the shared stamp/idx
// tables (disjoint per shard by construction), then verifies the state
// against a from-scratch recomputation. Runs in every `go test` run but is
// load-bearing under -race (scripts/check.sh).
func TestShardedGrouperStress(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 600, 3000)
	x := tensor.RandMatrix(rng, 600, 8, 1)
	model := gnn.NewGIN(rng, 8, 16, 3, gnn.NewAggregator(gnn.AggMax))
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.shardThreshold = 1
	batches := 12
	if testing.Short() {
		batches = 4
	}
	for batch := 0; batch < batches; batch++ {
		delta := graph.RandomDelta(rng, e.Graph(), 120)
		if err := e.Update(delta); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if err := e.Verify(0); err != nil {
		t.Fatal(err)
	}
}

// benchApplyGrouping measures Apply over large deltas with the given
// sharded-routing threshold (0 = default); the delta stream is pre-generated and replayed as
// insert/delete toggles so every iteration does identical work.
func benchApplyGrouping(b *testing.B, shardThreshold int) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 4000, 20_000)
	x := tensor.RandMatrix(rng, 4000, 16, 1)
	model := gnn.NewGIN(rng, 16, 32, 3, gnn.NewAggregator(gnn.AggMax))
	e, err := New(model, g, x, nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	e.shardThreshold = shardThreshold
	// An alternating insert/remove pair over a fixed edge set keeps the
	// graph (and thus per-iteration work) stable.
	var absent graph.Delta
	for len(absent) < 256 {
		u := graph.NodeID(rng.Intn(4000))
		v := graph.NodeID(rng.Intn(4000))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		absent = append(absent, graph.EdgeChange{U: u, V: v, Insert: true})
	}
	removal := make(graph.Delta, len(absent))
	for i, ch := range absent {
		ch.Insert = false
		removal[i] = ch
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			err = e.Update(absent)
		} else {
			err = e.Update(removal)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyShardedGrouping(b *testing.B) {
	benchApplyGrouping(b, 0)
}

func BenchmarkApplySequentialGrouping(b *testing.B) {
	benchApplyGrouping(b, math.MaxInt)
}
