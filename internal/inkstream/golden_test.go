package inkstream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// goldenLayer is one layer's share of a golden run: the condition counts
// (Fig. 8) and the per-layer trace traffic summed over every batch.
type goldenLayer struct {
	Cond                            [numConditions]int64
	EventsIn, EventsOut, BytesFetch int64
}

// goldenRun is the cost accounting of one fixed seeded stream: the four
// metrics.Counters values Table V reads plus the per-layer breakdown, and
// an FNV-64 hash over the bits of every final checkpoint (H, M, α), which
// pins accumulative aggregators bitwise too.
type goldenRun struct {
	NodesVisited, EventsProcessed, BytesFetched, FLOPs int64
	Layers                                             []goldenLayer
	StateHash                                          uint64
}

// goldenApply is the accounting of the stream below as the engine charged
// it when these values were recorded. Any change to how Apply stages, groups
// or fans out events must leave every number unchanged: the paper's cost
// tables are computed from them.
var goldenApply = map[string]goldenRun{
	"GCN/max": {NodesVisited: 456, EventsProcessed: 1508, BytesFetched: 136544, FLOPs: 45488, Layers: []goldenLayer{
		{Cond: [6]int64{46, 30, 1, 70, 0, 0}, EventsIn: 264, EventsOut: 1148, BytesFetch: 32416},
		{Cond: [6]int64{17, 21, 42, 229, 0, 0}, EventsIn: 1244, EventsOut: 0, BytesFetch: 103840},
	}, StateHash: 0xb51fedbbe59ddf47},
	"GCN/mean": {NodesVisited: 488, EventsProcessed: 1162, BytesFetched: 73376, FLOPs: 38208, Layers: []goldenLayer{
		{Cond: [6]int64{0, 0, 0, 0, 147, 0}, EventsIn: 180, EventsOut: 886, BytesFetch: 19840},
		{Cond: [6]int64{0, 0, 0, 0, 341, 0}, EventsIn: 982, EventsOut: 0, BytesFetch: 53248},
	}, StateHash: 0x99e8fdd86e8ae2d},
	"SAGE/max": {NodesVisited: 424, EventsProcessed: 1524, BytesFetched: 121872, FLOPs: 108848, Layers: []goldenLayer{
		{Cond: [6]int64{37, 29, 3, 60, 0, 6}, EventsIn: 234, EventsOut: 1088, BytesFetch: 24752},
		{Cond: [6]int64{58, 8, 54, 169, 0, 0}, EventsIn: 1184, EventsOut: 0, BytesFetch: 96832},
	}, StateHash: 0xd2cade9014fda719},
	"SAGE/mean": {NodesVisited: 462, EventsProcessed: 1224, BytesFetched: 78720, FLOPs: 132396, Layers: []goldenLayer{
		{Cond: [6]int64{0, 0, 0, 0, 129, 6}, EventsIn: 165, EventsOut: 816, BytesFetch: 17856},
		{Cond: [6]int64{0, 0, 0, 0, 327, 0}, EventsIn: 912, EventsOut: 0, BytesFetch: 60576},
	}, StateHash: 0xa6be4e5f4286c61e},
	"GIN/max": {NodesVisited: 812, EventsProcessed: 5520, BytesFetched: 346848, FLOPs: 283042, Layers: []goldenLayer{
		{Cond: [6]int64{35, 40, 4, 65, 0, 7}, EventsIn: 266, EventsOut: 1292, BytesFetch: 28064},
		{Cond: [6]int64{26, 26, 59, 194, 0, 0}, EventsIn: 1388, EventsOut: 3370, BytesFetch: 119520},
		{Cond: [6]int64{10, 0, 66, 280, 0, 0}, EventsIn: 3466, EventsOut: 0, BytesFetch: 198976},
	}, StateHash: 0x1cfd8fa5fd23afee},
	"GIN/mean": {NodesVisited: 842, EventsProcessed: 3709, BytesFetched: 194184, FLOPs: 275602, Layers: []goldenLayer{
		{Cond: [6]int64{0, 0, 0, 0, 144, 7}, EventsIn: 181, EventsOut: 866, BytesFetch: 19656},
		{Cond: [6]int64{0, 0, 0, 0, 331, 0}, EventsIn: 962, EventsOut: 1983, BytesFetch: 73152},
		{Cond: [6]int64{0, 0, 0, 0, 360, 0}, EventsIn: 2079, EventsOut: 0, BytesFetch: 101088},
	}, StateHash: 0xd49c7977d02888ba},
}

// runGoldenStream applies a fixed seeded stream mixing edge changes and
// vertex-feature updates, and returns the engine's accumulated accounting.
func runGoldenStream(t *testing.T, mname string, kind gnn.AggKind) goldenRun {
	t.Helper()
	rng := rand.New(rand.NewSource(1401))
	const n, feat = 60, 6
	g := randomGraph(rng, n, 3*n)
	x := tensor.RandMatrix(rng, n, feat, 1)
	model := buildModel(rng, mname, feat, kind)
	var c metrics.Counters
	e, err := New(model, g, x, &c, Options{Observer: obs.NewObserver()})
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	run := goldenRun{Layers: make([]goldenLayer, model.NumLayers())}
	for batch := 0; batch < 6; batch++ {
		delta := graph.RandomDelta(rng, e.Graph(), 8)
		var vups []VertexUpdate
		for _, v := range rng.Perm(n)[:3] {
			vups = append(vups, VertexUpdate{Node: graph.NodeID(v), X: tensor.RandVector(rng, feat, 1)})
		}
		if batch%3 == 2 {
			vups = nil // some edge-only batches
		}
		if err := e.Apply(delta, vups); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for l, span := range e.Trace().Layers {
			run.Layers[l].EventsIn += span.EventsIn
			run.Layers[l].EventsOut += span.EventsOut
			run.Layers[l].BytesFetch += span.BytesFetched
		}
	}
	run.NodesVisited = c.NodesVisited.Load()
	run.EventsProcessed = c.EventsProcessed.Load()
	run.BytesFetched = c.BytesFetched.Load()
	run.FLOPs = c.FLOPs.Load()
	for l := range run.Layers {
		run.Layers[l].Cond = e.LayerStats(l).Counts
	}
	h := fnv.New64a()
	var b [4]byte
	st := e.State()
	for _, ms := range [][]*tensor.Matrix{st.H, st.M, st.Alpha} {
		for _, m := range ms {
			for _, v := range m.Data {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
	}
	run.StateHash = h.Sum64()
	return run
}

// TestGoldenApplyCounters pins the cost accounting of Apply over
// GCN/SAGE/GIN × max/mean against recorded constants.
func TestGoldenApplyCounters(t *testing.T) {
	for _, mname := range allModels {
		for _, kind := range []gnn.AggKind{gnn.AggMax, gnn.AggMean} {
			key := mname + "/" + kind.String()
			t.Run(key, func(t *testing.T) {
				got := runGoldenStream(t, mname, kind)
				want, ok := goldenApply[key]
				if !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("accounting drifted:\n got  %#v\n want %#v", got, want)
				}
			})
		}
	}
}
