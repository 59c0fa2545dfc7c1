package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/tensor"
)

// workload is one named traffic mix: the deployment it runs against and
// the shape of the closed-loop request streams driving it.
type workload struct {
	name string
	why  string

	dataset string
	scale   int64 // extra down-scaling on top of the dataset profile's own
	model   string
	agg     gnn.AggKind
	hidden  int
	shards  int // 1 = single engine behind server.Server; >1 = shard.Router

	batch    int // edge changes per POST /v1/update
	poolSize int // edges each writer connection toggles (a multiple of batch)
	writers  int
	readers  int  // dedicated GET /v1/embedding connections
	probe    bool // each writer also reads one embedding per probeChanges acknowledged changes
	hubCrowd bool
}

// datasetSeed and modelSeed fix the graph, features and weights (inkserve's
// defaults): the benchmark's --seed varies only the request streams, so
// runs with different seeds measure the same deployment.
const (
	datasetSeed = 1
	modelSeed   = datasetSeed + 100
)

var workloads = []workload{
	{
		name:    "crowd",
		why:     "flash crowd of single-change updates on one hub: per-request HTTP, queue, group-commit, coalescing and ack costs dominate",
		dataset: "YP", scale: 16, model: "gcn", agg: gnn.AggMax, hidden: 16, shards: 1,
		batch: 1, poolSize: 16, writers: 2, probe: true, hubCrowd: true,
	},
	{
		name:    "scatter",
		why:     "16-change batches of scattered edges on a 2-shard router: engine compute and the BSP round (ghost exchange, barrier) dominate",
		dataset: "PD", scale: 4, model: "gcn", agg: gnn.AggMax, hidden: 32, shards: 2,
		batch: 16, poolSize: 512, writers: 2, probe: true,
	},
	{
		name:    "mixed",
		why:     "Zipf reads beside 16-change GraphSAGE-mean writes: snapshot publish, the lock-free read path and the accumulative aggregator",
		dataset: "RD", scale: 16, model: "sage", agg: gnn.AggMean, hidden: 16, shards: 1,
		batch: 16, poolSize: 256, writers: 1, readers: 1,
	},
}

// probeChanges sets the read rate of crowd and scatter. Every end-to-end
// metric is reported on every workload, but with nproc = 2 both of their
// connections are writers, so each writer reads one embedding per
// probeChanges edge changes acknowledged: one GET per 16 requests on
// crowd and per request on scatter. The rate is one for both and small
// beside the writes (at most a sixteenth of the changes), so the reads
// sample the read path under each write load without becoming the load.
// Their reads_per_s is upd_per_s/probeChanges by construction; only
// mixed, with its own reader connection, measures read throughput.
const probeChanges = 16

// readEvery is how many acknowledged requests a probing writer sends
// between reads (0 = it never reads).
func (w workload) readEvery() int {
	if !w.probe {
		return 0
	}
	return probeChanges / w.batch
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want crowd, scatter or mixed)", name)
}

// inputs are what the deployment constructors receive: the generated
// graph, features and model. The graph is never mutated; every deployment
// gets its own clone.
type inputs struct {
	spec  dataset.Spec
	g     *graph.Graph
	x     *tensor.Matrix
	model *gnn.Model
}

// buildInputs generates the workload's dataset and model exactly as
// inkserve's -dataset/-scale/-model/-agg/-hidden flags would.
func buildInputs(w workload) (*inputs, error) {
	spec, err := dataset.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	spec.Scale *= w.scale
	g, feats := dataset.Generate(spec, datasetSeed)
	rng := rand.New(rand.NewSource(modelSeed))
	agg := gnn.NewAggregator(w.agg)
	var model *gnn.Model
	switch w.model {
	case "gcn":
		model = gnn.NewGCN(rng, feats.Dim(), w.hidden, agg)
	case "sage":
		model = gnn.NewSAGE(rng, feats.Dim(), w.hidden, agg)
	default:
		return nil, fmt.Errorf("unknown model %q", w.model)
	}
	return &inputs{spec: spec, g: g, x: feats.X, model: model}, nil
}

// exact reports whether served embeddings must match a full recompute
// bit for bit: true when every layer aggregates monotonically.
func (in *inputs) exact() bool {
	for _, l := range in.model.Layers {
		if !l.Agg().Monotonic() {
			return false
		}
	}
	return true
}

// update is one pre-generated POST /v1/update request: its delta, its JSON
// body and the whole serialised HTTP request.
type update struct {
	delta graph.Delta
	body  []byte
	req   []byte
	key   uint64 // identifies the request among those in flight (deltaKey)
}

// stream is one connection's request sequence. Writers cycle through ups
// (toggle cycles of their pool: an insert sweep, then a delete sweep),
// readers and read-probing writers through reads.
type stream struct {
	ups   []update
	reads []int
}

// streams holds every connection's request stream plus the workload's
// generation facts for the provenance block.
type streams struct {
	writers []stream
	readers []stream
	hub     graph.NodeID // crowd only; -1 otherwise
}

// zipfIDs is the length of each pre-generated Zipf read-id cycle.
const zipfIDs = 1 << 16

// deltaKey packs a delta's first change into a key. Writer pools are
// disjoint and each connection has one request in flight, so the key is
// unique among in-flight requests.
func deltaKey(d graph.Delta) uint64 {
	c := d[0]
	k := uint64(uint32(c.U))<<33 | uint64(uint32(c.V))<<1
	if c.Insert {
		k |= 1
	}
	return k
}

// genStreams draws every connection's request stream from seed, in
// O(changes + nodes) and before any clock starts. Each writer owns a
// disjoint pool of absent edges and toggles it: one seeded-order insert
// sweep, then one seeded-order delete sweep, with a fresh order in each of
// toggleCycles cycles before the stream repeats. Because pools are
// disjoint and every connection waits for its ack before sending again,
// every request is valid under any interleaving of the connections.
func genStreams(w workload, g *graph.Graph, seed int64) (*streams, error) {
	rng := rand.New(rand.NewSource(seed))
	var pools [][]graph.EdgeChange
	st := &streams{hub: -1}
	var err error
	if w.hubCrowd {
		st.hub, pools, err = hubPools(rng, g, w.writers, w.poolSize)
	} else {
		pools, err = scatterPools(rng, g, w.writers, w.poolSize)
	}
	if err != nil {
		return nil, err
	}
	// The read skew is the repository's own model (the tiered-store
	// experiment's): Zipf s=1.3, v=4, hot ranks scattered over the node
	// range by a multiplicative hash.
	n := uint64(g.NumNodes())
	zipf := rand.NewZipf(rng, 1.3, 4, n-1)
	readIDs := func() []int {
		ids := make([]int, zipfIDs)
		for i := range ids {
			ids[i] = int((zipf.Uint64() * 2654435761) % n)
		}
		return ids
	}
	for _, pool := range pools {
		s := stream{ups: togglePool(rng, pool, w.batch)}
		if w.probe {
			s.reads = readIDs()
		}
		st.writers = append(st.writers, s)
	}
	for r := 0; r < w.readers; r++ {
		st.readers = append(st.readers, stream{reads: readIDs()})
	}
	return st, nil
}

// toggleCycles is how many toggle cycles, each in its own seeded order,
// a writer's stream holds before it repeats. The cost of a change depends
// on the order it lands in (under max aggregation, deleting the edge that
// holds a maximum forces a recompute), so a stream that repeated one order
// all run long made throughput depend on the seed by a tenth; averaging
// over many orders in every run removes that.
const toggleCycles = 32

// togglePool lays out a pool's toggle cycles as requests of batch
// changes: in each cycle the pool is inserted in one seeded order, then
// deleted in another, which returns it to the base graph.
func togglePool(rng *rand.Rand, pool []graph.EdgeChange, batch int) []update {
	var ups []update
	for cycle := 0; cycle < toggleCycles; cycle++ {
		for _, insert := range []bool{true, false} {
			order := rng.Perm(len(pool))
			for i := 0; i < len(order); i += batch {
				d := make(graph.Delta, 0, batch)
				req := server.UpdateRequest{}
				for _, k := range order[i : i+batch] {
					c := pool[k]
					c.Insert = insert
					d = append(d, c)
					req.Changes = append(req.Changes, server.EdgeChangeJSON{U: c.U, V: c.V, Insert: insert})
				}
				body, _ := json.Marshal(req) // plain structs of ints and bools cannot fail to encode
				ups = append(ups, update{delta: d, body: body, req: updateRequest(nil, body, 0), key: deltaKey(d)})
			}
		}
	}
	return ups
}

// hubDegree is the hub out-degree the flash crowd aims for (the rule of
// inkbench's burst scenario): high enough that the hub's neighbourhood
// dominates each update, low enough that the cascade stays bounded.
const hubDegree = 64

// hubPools picks the hub whose degree is closest to hubDegree (lowest ID on
// ties) and the writers×size highest-degree nodes not yet linked to it as
// spokes (inkbench burst's rule: the crowd of popular accounts piling onto
// the hub). The seed deals the spokes out to the writers. The spoke set
// itself is fixed: spokes differ widely in degree, so drawing them by seed
// made throughput differ by a third between seeds.
func hubPools(rng *rand.Rand, g *graph.Graph, writers, size int) (graph.NodeID, [][]graph.EdgeChange, error) {
	hub, best := graph.NodeID(0), -1
	for u := 0; u < g.NumNodes(); u++ {
		gap := g.OutDegree(graph.NodeID(u)) - hubDegree
		if gap < 0 {
			gap = -gap
		}
		if best < 0 || gap < best {
			hub, best = graph.NodeID(u), gap
		}
	}
	var cand []graph.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		v := graph.NodeID(u)
		if v != hub && !g.HasEdge(hub, v) {
			cand = append(cand, v)
		}
	}
	need := writers * size
	if len(cand) < need {
		return 0, nil, fmt.Errorf("hub %d has only %d absent spokes, need %d", hub, len(cand), need)
	}
	sort.Slice(cand, func(i, j int) bool {
		if di, dj := g.OutDegree(cand[i]), g.OutDegree(cand[j]); di != dj {
			return di > dj
		}
		return cand[i] < cand[j]
	})
	cand = cand[:need]
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	pools := make([][]graph.EdgeChange, writers)
	for w := range pools {
		for _, v := range cand[w*size : (w+1)*size] {
			pools[w] = append(pools[w], graph.EdgeChange{U: hub, V: v})
		}
	}
	return hub, pools, nil
}

// scatterPools draws size absent edges per writer whose endpoints are all
// distinct across every pool, so no two changes anywhere share a node.
func scatterPools(rng *rand.Rand, g *graph.Graph, writers, size int) ([][]graph.EdgeChange, error) {
	n := g.NumNodes()
	if 2*writers*size > n {
		return nil, fmt.Errorf("%d nodes cannot give %d×%d edges distinct endpoints", n, writers, size)
	}
	used := make([]bool, n)
	pools := make([][]graph.EdgeChange, writers)
	for w := range pools {
		for tries := 0; len(pools[w]) < size; tries++ {
			if tries > 1000*size {
				return nil, fmt.Errorf("could not draw %d scattered absent edges", size)
			}
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v || used[u] || used[v] || g.HasEdge(u, v) {
				continue
			}
			used[u], used[v] = true, true
			pools[w] = append(pools[w], graph.EdgeChange{U: u, V: v})
		}
	}
	return pools, nil
}

// finalGraph is the graph the deployment must be serving after each writer
// had acked[i] requests acknowledged: the base graph with every acked
// request of every stream applied in order.
func finalGraph(base *graph.Graph, st *streams, acked []int) (*graph.Graph, error) {
	g := base.Clone()
	for i, s := range st.writers {
		for k := 0; k < acked[i]; k++ {
			if err := s.ups[k%len(s.ups)].delta.Apply(g); err != nil {
				return nil, fmt.Errorf("writer %d request %d: %w", i, k, err)
			}
		}
	}
	return g, nil
}
