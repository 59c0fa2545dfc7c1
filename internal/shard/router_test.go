package shard

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/persist"
	"repro/internal/tensor"
)

func testGraph(rng *rand.Rand, n, edges int) *graph.Graph {
	g := graph.NewUndirected(n)
	for g.NumEdges() < edges {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

func testModel(rng *rand.Rand, name string, featLen int, kind gnn.AggKind) *gnn.Model {
	switch name {
	case "GCN":
		return gnn.NewGCN(rng, featLen, 8, gnn.NewAggregator(kind))
	case "SAGE":
		return gnn.NewSAGE(rng, featLen, 8, gnn.NewAggregator(kind))
	case "GIN":
		return gnn.NewGIN(rng, featLen, 8, 3, gnn.NewAggregator(kind))
	}
	panic("unknown model " + name)
}

// applyRef is the reference every router deployment is checked against: a
// plain engine over the same bootstrap graph, driven by Apply and
// publishing one snapshot per batch — the epochs a router publishes per
// round.
type applyRef struct {
	t   *testing.T
	eng *inkstream.Engine
}

func newApplyRef(t *testing.T, model *gnn.Model, g *graph.Graph, x *tensor.Matrix) *applyRef {
	t.Helper()
	eng, err := inkstream.New(model, g.Clone(), x.Clone(), nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.PublishSnapshot()
	return &applyRef{t: t, eng: eng}
}

// apply applies one batch. vups must be sorted by node: the router orders
// a round's feature updates that way, and accumulative sums see the
// resulting event order.
func (r *applyRef) apply(delta graph.Delta, vups []inkstream.VertexUpdate) {
	r.t.Helper()
	if err := r.eng.Apply(delta, vups); err != nil {
		r.t.Fatalf("reference Apply: %v", err)
	}
	r.eng.PublishSnapshot()
}

// check demands that rt serves every vertex's reference row bitwise, at the
// reference's epoch.
func (r *applyRef) check(when, name string, rt *Router) {
	r.t.Helper()
	snap := r.eng.Snapshot()
	for v := 0; v < snap.NumNodes(); v++ {
		row, epoch, ok := rt.ReadEmbedding(v)
		if !ok {
			r.t.Fatalf("%s: node %d unreadable on %s", when, v, name)
		}
		if epoch != snap.Epoch {
			r.t.Fatalf("%s: node %d on %s at epoch %d, reference at %d", when, v, name, epoch, snap.Epoch)
		}
		if !row.Equal(snap.Row(v)) {
			r.t.Fatalf("%s: node %d diverged on %s at epoch %d:\nApply:  %v\nrouter: %v",
				when, v, name, epoch, snap.Row(v), row)
		}
	}
}

// checkInfer checks rt against from-scratch inference over g and x: bitwise
// for monotonic aggregators, within 2e-3 for accumulative ones.
func checkInfer(t *testing.T, model *gnn.Model, g *graph.Graph, x *tensor.Matrix, kind gnn.AggKind, rt *Router) {
	t.Helper()
	want, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	monotonic := kind == gnn.AggMax || kind == gnn.AggMin
	for v := 0; v < g.NumNodes(); v++ {
		row, _, _ := rt.ReadEmbedding(v)
		ref := want.Output().Row(v)
		if monotonic && !row.Equal(ref) {
			t.Fatalf("node %d: not bit-identical to reference inference", v)
		}
		if !monotonic && !row.ApproxEqual(ref, 2e-3) {
			t.Fatalf("node %d: drifted from reference inference: %v vs %v", v, row, ref)
		}
	}
}

// randomStep draws one stream batch over mirror: `changes` random edge changes
// and, when withVups, feature updates of 3 distinct vertices sorted by
// node, copied into x.
func randomStep(rng *rand.Rand, mirror *graph.Graph, x *tensor.Matrix, changes int, withVups bool) (graph.Delta, []inkstream.VertexUpdate) {
	delta := graph.RandomDelta(rng, mirror, changes)
	if !withVups {
		return delta, nil
	}
	nodes := rng.Perm(mirror.NumNodes())[:3]
	sort.Ints(nodes)
	var vups []inkstream.VertexUpdate
	for _, v := range nodes {
		up := inkstream.VertexUpdate{Node: graph.NodeID(v), X: tensor.RandVector(rng, x.Cols, 1)}
		vups = append(vups, up)
		copy(x.Row(v), up.X)
	}
	return delta, vups
}

// TestSingleShardMatchesApply: a 1-shard router runs the same round
// executor as a partitioned one, with empty subscription tables. Driven by
// a mixed add/delete/feature-update stream, it must serve exactly what a
// plain engine driven by Apply serves — bitwise, at every epoch, for every
// model × aggregator.
func TestSingleShardMatchesApply(t *testing.T) {
	for _, name := range []string{"GCN", "SAGE", "GIN"} {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean, gnn.AggSum} {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(89))
				const n, featLen = 60, 6
				g := testGraph(rng, n, 150)
				x := tensor.RandMatrix(rng, n, featLen, 1)
				model := testModel(rng, name, featLen, kind)

				ref := newApplyRef(t, model, g, x)
				rt, err := New(model, g.Clone(), x.Clone(), Config{Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				ref.check("bootstrap", "1-shard", rt)

				mirror, xCur := g.Clone(), x.Clone()
				for step := 0; step < 10; step++ {
					delta, vups := randomStep(rng, mirror, xCur, 4, step%2 == 1)
					if err := rt.Apply(delta, vups); err != nil {
						t.Fatalf("step %d: router apply: %v", step, err)
					}
					ref.apply(delta, vups)
					if err := delta.Apply(mirror); err != nil {
						t.Fatal(err)
					}
					ref.check(fmt.Sprintf("step %d", step), "1-shard", rt)
				}
				checkInfer(t, model, mirror, xCur, kind, rt)
				if st := rt.Stats(); st.BoundaryRecords != 0 || st.FilteredRecords != 0 || st.GhostRows != 0 {
					t.Fatalf("1-shard deployment exchanged records: %+v", st)
				}
			})
		}
	}
}

// TestCrossShardBitExact drives an identical add/delete/feature-update
// stream through 4-shard deployments, one per partition strategy, over a
// graph with a nontrivial cut and demands the embeddings of a plain engine
// driven by Apply for every vertex at every published epoch — bitwise, for
// accumulative aggregators included (the §11.3 exactness claim). The final
// state is also checked against from-scratch inference on a mirror of the
// stream.
func TestCrossShardBitExact(t *testing.T) {
	for _, name := range []string{"SAGE", "GIN"} {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean, gnn.AggSum} {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(97))
				const n, featLen = 60, 6
				g := testGraph(rng, n, 150)
				x := tensor.RandMatrix(rng, n, featLen, 1)
				model := testModel(rng, name, featLen, kind)

				ref := newApplyRef(t, model, g, x)
				type deployment struct {
					name string
					rt   *Router
				}
				var deps []deployment
				for _, strat := range graph.PartitionStrategies {
					rt, err := New(model, g.Clone(), x.Clone(), Config{Shards: 4, PartitionStrategy: strat})
					if err != nil {
						t.Fatalf("%s deployment: %v", strat, err)
					}
					defer rt.Close()
					deps = append(deps, deployment{strat, rt})
				}
				r4 := deps[0].rt
				for _, d := range deps {
					if d.rt.Stats().CutFraction == 0 {
						t.Fatalf("%s: trivial cut; the test would prove nothing", d.name)
					}
				}

				mirror, xCur := g.Clone(), x.Clone()
				for step := 0; step < 10; step++ {
					delta, vups := randomStep(rng, mirror, xCur, 4, step%2 == 1)
					ref.apply(delta, vups)
					for _, d := range deps {
						if err := d.rt.Apply(delta, vups); err != nil {
							t.Fatalf("step %d: %s apply: %v", step, d.name, err)
						}
					}
					if err := delta.Apply(mirror); err != nil {
						t.Fatalf("step %d: mirror apply: %v", step, err)
					}
					for _, d := range deps {
						ref.check(fmt.Sprintf("step %d", step), d.name, d.rt)
					}
				}

				// The shared stream also has to mean the right thing: check
				// the 4-shard deployment against from-scratch inference on
				// the mirrored graph and features.
				checkInfer(t, model, mirror, xCur, kind, r4)

				st := r4.Stats()
				if st.Shards != 4 || len(st.PerShard) != 4 {
					t.Fatalf("stats report %d shards / %d slices, want 4", st.Shards, len(st.PerShard))
				}
				if st.EpochSkew != 0 {
					t.Fatalf("idle deployment has epoch skew %d", st.EpochSkew)
				}
				if st.BoundaryRecords == 0 || st.BoundaryBytes == 0 {
					t.Fatal("multi-shard stream produced no boundary traffic")
				}
				if st.Edges != mirror.NumEdges() {
					t.Fatalf("stats count %d edges, mirror has %d", st.Edges, mirror.NumEdges())
				}
			})
		}
	}
}

// TestRouterConcurrentWriters is the -race stress for router fan-out under
// concurrent conflicting writers: several goroutines toggle edges from one
// shared pool (guaranteed conflicts → stall-sealed rounds), others stream
// feature updates over disjoint vertex sets, and readers poll embeddings
// throughout. Afterwards the deployment must agree bitwise with from-scratch
// inference over the reconstructed graph (each successful toggle flips
// presence, so final presence is initial XOR parity).
func TestRouterConcurrentWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const n, featLen = 40, 5
	g := testGraph(rng, n, 80)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMax)

	rt, err := New(model, g.Clone(), x.Clone(), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// A pool of canonical edges, some initially present, some absent.
	type pooled struct {
		u, v    graph.NodeID
		present bool
		toggles atomic.Int64
	}
	var pool []*pooled
	seen := make(map[[2]graph.NodeID]bool)
	for len(pool) < 16 {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if v < u {
			u, v = v, u
		}
		if seen[[2]graph.NodeID{u, v}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		pool = append(pool, &pooled{u: u, v: v, present: g.HasEdge(u, v)})
	}

	const writers, opsPerWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsPerWriter; op++ {
				p := pool[wrng.Intn(len(pool))]
				// Racing writers mean we cannot know the edge's current
				// presence; try one polarity, fall back to the other. Exactly
				// one can succeed per attempt, and each success is a toggle.
				ins := wrng.Intn(2) == 0
				d := graph.Delta{{U: p.u, V: p.v, Insert: ins}}
				if rt.Apply(d, nil) == nil {
					p.toggles.Add(1)
					continue
				}
				d[0].Insert = !ins
				if rt.Apply(d, nil) == nil {
					p.toggles.Add(1)
				}
			}
		}(int64(1000 + w))
	}

	// Feature writers own disjoint vertex slices; sequential sync applies
	// mean the last submitted value is the final one.
	finalX := x.Clone()
	var fwg sync.WaitGroup
	var fmu sync.Mutex
	for w := 0; w < 2; w++ {
		fwg.Add(1)
		go func(w int) {
			defer fwg.Done()
			frng := rand.New(rand.NewSource(int64(2000 + w)))
			nodes := []graph.NodeID{graph.NodeID(w), graph.NodeID(10 + w), graph.NodeID(20 + w)}
			for op := 0; op < 15; op++ {
				node := nodes[frng.Intn(len(nodes))]
				up := inkstream.VertexUpdate{Node: node, X: tensor.RandVector(frng, featLen, 1)}
				if err := rt.Apply(nil, []inkstream.VertexUpdate{up}); err != nil {
					t.Errorf("feature writer %d: %v", w, err)
					return
				}
				fmu.Lock()
				copy(finalX.Row(int(node)), up.X)
				fmu.Unlock()
			}
		}(w)
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				row, _, ok := rt.ReadEmbedding(rrng.Intn(n))
				if !ok || len(row) == 0 {
					t.Error("reader: bad embedding")
					return
				}
			}
		}(int64(3000 + r))
	}

	wg.Wait()
	fwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}

	expected := g.Clone()
	for _, p := range pool {
		present := p.present != (p.toggles.Load()%2 == 1)
		if present != expected.HasEdge(p.u, p.v) {
			var err error
			if present {
				err = expected.AddEdge(p.u, p.v)
			} else {
				err = expected.RemoveEdge(p.u, p.v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := gnn.Infer(model, expected, finalX, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		row, _, _ := rt.ReadEmbedding(v)
		if !row.Equal(want.Output().Row(v)) {
			t.Fatalf("node %d: post-stress state disagrees with reference inference", v)
		}
	}
	if rt.Corrupt() {
		t.Fatal("deployment marked corrupt after clean stress")
	}
}

// TestRouterWALRecovery round-trips a deployment through its per-shard
// WALs: apply a stream, close, reopen over the same bootstrap inputs, and
// demand identical epochs and embeddings, then verify the reopened router
// still accepts updates.
func TestRouterWALRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n, featLen = 40, 5
	g := testGraph(rng, n, 90)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMean)
	dir := t.TempDir()
	cfg := Config{Shards: 3, WALDir: dir}

	rt, err := New(model, g.Clone(), x.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mirror := g.Clone()
	const steps = 5
	for step := 0; step < steps; step++ {
		delta := graph.RandomDelta(rng, mirror, 3)
		vups := []inkstream.VertexUpdate{{
			Node: graph.NodeID(rng.Intn(n)),
			X:    tensor.RandVector(rng, featLen, 1),
		}}
		if err := rt.Apply(delta, vups); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := delta.Apply(mirror); err != nil {
			t.Fatal(err)
		}
	}
	type snap struct {
		row   tensor.Vector
		epoch uint64
	}
	before := make([]snap, n)
	for v := 0; v < n; v++ {
		row, epoch, _ := rt.ReadEmbedding(v)
		before[v] = snap{row: row.Clone(), epoch: epoch}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(model, g.Clone(), x.Clone(), cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer rt2.Close()
	st := rt2.Stats()
	if st.RecoveredRounds != steps {
		t.Fatalf("recovered %d rounds, want %d", st.RecoveredRounds, steps)
	}
	for v := 0; v < n; v++ {
		row, epoch, _ := rt2.ReadEmbedding(v)
		if epoch != before[v].epoch {
			t.Fatalf("node %d: epoch %d after recovery, want %d", v, epoch, before[v].epoch)
		}
		if !row.Equal(before[v].row) {
			t.Fatalf("node %d: embedding changed across recovery", v)
		}
	}
	if st.Edges != mirror.NumEdges() {
		t.Fatalf("recovered %d edges, mirror has %d", st.Edges, mirror.NumEdges())
	}

	delta := graph.RandomDelta(rng, mirror, 2)
	if err := rt2.Apply(delta, nil); err != nil {
		t.Fatalf("post-recovery apply: %v", err)
	}
	if _, epoch, _ := rt2.ReadEmbedding(0); epoch != before[0].epoch+1 {
		t.Fatalf("post-recovery epoch %d, want %d", epoch, before[0].epoch+1)
	}
}

// TestRouterRecoveryTwice is the partial-round repro: 3 shards run 5 rounds
// and shard 2 loses its last record, so recovery replays 4 rounds. Two more
// updates follow. A second recovery must then serve, bitwise and at the same
// epoch, exactly what the second process served — which holds only if the
// first recovery cut the other shards' fifth record before appending.
func TestRouterRecoveryTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n, featLen = 40, 5
	g := testGraph(rng, n, 90)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMean)
	cfg := Config{Shards: 3, WALDir: t.TempDir()}

	// run applies steps random updates, each touching every shard's WAL
	// (a round journals one record per shard, empty or not).
	run := func(rt *Router, mirror *graph.Graph, steps int) {
		t.Helper()
		for step := 0; step < steps; step++ {
			delta := graph.RandomDelta(rng, mirror, 3)
			vups := []inkstream.VertexUpdate{{
				Node: graph.NodeID(rng.Intn(n)),
				X:    tensor.RandVector(rng, featLen, 1),
			}}
			if err := rt.Apply(delta, vups); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := delta.Apply(mirror); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt, err := New(model, g.Clone(), x.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mirror := g.Clone()
	run(rt, mirror, 4)
	afterFour := mirror.Clone()
	run(rt, mirror, 1)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// Shard 2 loses its last record: cutting one byte tears it.
	path := persist.ShardWALPath(cfg.WALDir, 2)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(model, g.Clone(), x.Clone(), cfg)
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	if got := rt2.Stats().RecoveredRounds; got != 4 {
		t.Fatalf("first recovery replayed %d rounds, want 4", got)
	}
	run(rt2, afterFour, 2)
	type served struct {
		row   tensor.Vector
		epoch uint64
	}
	want := make([]served, n)
	for v := 0; v < n; v++ {
		row, epoch, _ := rt2.ReadEmbedding(v)
		want[v] = served{row: row.Clone(), epoch: epoch}
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Shards; s++ {
		batches, torn, err := persist.ReadWAL(persist.ShardWALPath(cfg.WALDir, s))
		if err != nil || torn || len(batches) != 6 {
			t.Fatalf("shard %d WAL: %d records (torn %v, err %v), want 6", s, len(batches), torn, err)
		}
	}

	rt3, err := New(model, g.Clone(), x.Clone(), cfg)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer rt3.Close()
	if got := rt3.Stats().RecoveredRounds; got != 6 {
		t.Fatalf("second recovery replayed %d rounds, want 6", got)
	}
	for v := 0; v < n; v++ {
		row, epoch, _ := rt3.ReadEmbedding(v)
		if epoch != want[v].epoch || !row.Equal(want[v].row) {
			t.Fatalf("node %d: second recovery serves epoch %d %v, the second process served epoch %d %v",
				v, epoch, row, want[v].epoch, want[v].row)
		}
	}
}

// TestRouterValidation pins the router-side validation that makes shard
// applies infallible: invalid batches are rejected whole with no state
// change, and the deployment stays healthy.
func TestRouterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, featLen = 30, 4
	g := testGraph(rng, n, 60)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMax)

	rt, err := New(model, g.Clone(), x.Clone(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var present, absent graph.EdgeChange
	found := 0
	for u := 0; u < n && found < 2; u++ {
		for v := u + 1; v < n && found < 2; v++ {
			if g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				if present == (graph.EdgeChange{}) {
					present = graph.EdgeChange{U: graph.NodeID(u), V: graph.NodeID(v)}
					found++
				}
			} else if absent == (graph.EdgeChange{}) {
				absent = graph.EdgeChange{U: graph.NodeID(u), V: graph.NodeID(v)}
				found++
			}
		}
	}

	cases := []struct {
		name  string
		delta graph.Delta
		vups  []inkstream.VertexUpdate
	}{
		{"insert-existing", graph.Delta{{U: present.U, V: present.V, Insert: true}}, nil},
		{"delete-missing", graph.Delta{{U: absent.U, V: absent.V, Insert: false}}, nil},
		{"vup-out-of-range", nil, []inkstream.VertexUpdate{{Node: n + 5, X: make(tensor.Vector, featLen)}}},
		{"vup-bad-dim", nil, []inkstream.VertexUpdate{{Node: 1, X: make(tensor.Vector, featLen+1)}}},
		{"vup-duplicate", nil, []inkstream.VertexUpdate{
			{Node: 2, X: make(tensor.Vector, featLen)},
			{Node: 2, X: make(tensor.Vector, featLen)},
		}},
	}
	for _, tc := range cases {
		if err := rt.Apply(tc.delta, tc.vups); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	st := rt.Stats()
	if st.Rounds != 0 {
		t.Fatalf("rejected batches produced %d rounds", st.Rounds)
	}
	if st.Corrupt {
		t.Fatal("rejections marked the deployment corrupt")
	}
	if st.Edges != g.NumEdges() {
		t.Fatalf("edge count drifted to %d, want %d", st.Edges, g.NumEdges())
	}

	// A valid batch still lands after the rejections.
	if err := rt.Apply(graph.Delta{{U: absent.U, V: absent.V, Insert: true}}, nil); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if got := rt.Stats().Edges; got != g.NumEdges()+1 {
		t.Fatalf("edge count %d after insert, want %d", got, g.NumEdges()+1)
	}
}

// TestRouterClose pins shutdown semantics: Apply after Close fails with
// ErrRouterClosed and reads keep serving.
func TestRouterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, featLen = 20, 4
	g := testGraph(rng, n, 40)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMax)
	rt, err := New(model, g.Clone(), x.Clone(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Apply(graph.Delta{{U: 0, V: 1, Insert: !g.HasEdge(0, 1)}}, nil); err != ErrRouterClosed {
		t.Fatalf("apply after close: %v, want ErrRouterClosed", err)
	}
	if _, _, ok := rt.ReadEmbedding(0); !ok {
		t.Fatal("reads stopped serving after close")
	}
}
