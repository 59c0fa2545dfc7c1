package shard

import (
	"fmt"
	"math"

	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/server"
)

// ShardStats is one shard's slice of /v1/stats.
type ShardStats struct {
	Shard int `json:"shard"`
	// Epoch is the shard's published snapshot epoch; Rounds the update
	// rounds it reflects. All shards publish every round, so epochs agree
	// except transiently while a round's publishes race the reader.
	Epoch  uint64 `json:"epoch"`
	Rounds uint64 `json:"rounds"`
	// OwnedNodes is the partition size; Arcs the shard graph's current arc
	// count (every in-arc of every owned vertex).
	OwnedNodes   int   `json:"owned_nodes"`
	Arcs         int   `json:"arcs"`
	Events       int64 `json:"events_processed"`
	NodesVisited int64 `json:"nodes_visited"`
}

// StatsResponse is the body of the router's GET /v1/stats.
type StatsResponse struct {
	Shards int `json:"shards"`
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	// Epoch is the minimum published epoch across shards (the epoch every
	// read is guaranteed to be at least as fresh as); EpochSkew the max
	// minus min across shards.
	Epoch       uint64 `json:"epoch"`
	EpochSkew   uint64 `json:"epoch_skew"`
	SnapshotLag uint64 `json:"snapshot_lag"`
	// Rounds counts applied BSP rounds (RecoveredRounds of them replayed
	// from the WALs at startup); Stalls the rounds sealed early by a
	// conflicting request.
	Rounds          int64 `json:"rounds"`
	RecoveredRounds int64 `json:"recovered_rounds"`
	Stalls          int64 `json:"stalls"`
	UpdatesServed   int64 `json:"updates_served"`
	ReadsServed     int64 `json:"reads_served"`
	// PartitionStrategy names the vertex-placement policy ("hash", "block",
	// "greedy", or "custom" for an injected partition).
	PartitionStrategy string `json:"partition_strategy"`
	// CutFraction is the bootstrap-time fraction of arcs crossing shards;
	// BoundaryRecords/BoundaryBytes the cumulative record deliveries to
	// remote shards those cut arcs induced. FilteredRecords counts the
	// remote deliveries the subscription filter suppressed, GhostRows the
	// ghost message rows engines adopted from the delivered records.
	CutFraction     float64 `json:"cut_fraction"`
	BoundaryRecords int64   `json:"boundary_records"`
	BoundaryBytes   int64   `json:"boundary_bytes"`
	FilteredRecords int64   `json:"filtered_records"`
	GhostRows       int64   `json:"ghost_rows"`
	Corrupt         bool    `json:"corrupt,omitempty"`
	// FailStop carries the forensics of the round that tripped the corrupt
	// latch — round ID, error, time — present only after a fail-stop.
	FailStop   *obs.FailStopInfo       `json:"fail_stop,omitempty"`
	AckLatency server.LatencyQuantiles `json:"ack_latency"`
	// RoundProfile summarises the round profiler's critical-path
	// attribution (nil with profiling off or before the first round).
	RoundProfile *RoundProfileStats `json:"round_profile,omitempty"`
	PerShard     []ShardStats       `json:"per_shard"`
}

// RoundProfileStats is the cumulative critical-path attribution over every
// profiled round: where BSP wall-time went (shard compute vs barrier wait),
// how much of it the record exchange cost, and which shard sets the pace.
type RoundProfileStats struct {
	Rounds int64 `json:"rounds"`
	// BarrierShare is the cumulative fraction of BSP time the mean shard
	// spent stalled at barriers (1 − mean compute / BSP); BroadcastShare
	// the router-side record merge time as a fraction of BSP.
	BarrierShare   float64 `json:"barrier_share"`
	BroadcastShare float64 `json:"broadcast_share"`
	// BoundaryShare is the boundary-phase fraction of split-layer compute
	// (boundary / (boundary + interior)) across profiled rounds — how early
	// the protocol publishes its records.
	BoundaryShare float64 `json:"boundary_share"`
	// MeanStragglerSkew is the mean over rounds of max/mean shard compute
	// (1 = perfectly balanced); Straggler the shard that was slowest most
	// often, with the per-shard round counts in StragglerRounds.
	MeanStragglerSkew float64 `json:"mean_straggler_skew"`
	Straggler         int     `json:"straggler"`
	StragglerRounds   []int64 `json:"straggler_rounds"`
}

// Stats summarises the deployment. Everything is read from published
// snapshots and atomics — safe from any goroutine, lock-free.
func (rt *Router) Stats() StatsResponse {
	lo, hi := rt.epochs()
	resp := StatsResponse{
		Shards:            len(rt.shards),
		Nodes:             rt.part.NumNodes(),
		Edges:             int(rt.edges.Load()),
		Epoch:             lo,
		EpochSkew:         hi - lo,
		Rounds:            rt.rounds.Load(),
		RecoveredRounds:   rt.recovered.Load(),
		Stalls:            rt.stalls.Load(),
		UpdatesServed:     rt.updates.Load(),
		ReadsServed:       rt.reads.Load(),
		PartitionStrategy: rt.strategy,
		CutFraction:       rt.cut.CutFraction,
		BoundaryRecords:   rt.boundaryRecs.Load(),
		BoundaryBytes:     rt.boundaryBytes.Load(),
		FilteredRecords:   rt.filteredRecs.Load(),
		GhostRows:         rt.ghostRows.Load(),
		Corrupt:           rt.corrupt.Load(),
		FailStop:          rt.failStop.Load(),
	}
	if p, a := rt.processed.Load(), rt.accepted.Load(); a > p {
		resp.SnapshotLag = a - p
	}
	lat := rt.ackLat.Snapshot()
	const ms = 1e-6
	resp.AckLatency = server.LatencyQuantiles{
		P50: float64(lat.P50()) * ms,
		P95: float64(lat.P95()) * ms,
		P99: float64(lat.P99()) * ms,
		Max: float64(lat.Max) * ms,
	}
	if n := rt.profiled.Load(); n > 0 {
		rp := &RoundProfileStats{
			Rounds:            n,
			MeanStragglerSkew: float64(rt.skewMilli.Load()) / 1000 / float64(n),
			Straggler:         -1,
			StragglerRounds:   make([]int64, len(rt.stragglerRounds)),
		}
		if bsp := rt.bspNS.Load(); bsp > 0 {
			rp.BarrierShare = float64(rt.barrierNS.Load()) / float64(bsp)
			rp.BroadcastShare = float64(rt.broadcastNS.Load()) / float64(bsp)
		}
		if split := rt.boundaryNS.Load() + rt.interiorNS.Load(); split > 0 {
			rp.BoundaryShare = float64(rt.boundaryNS.Load()) / float64(split)
		}
		var best int64 = -1
		for i := range rt.stragglerRounds {
			c := rt.stragglerRounds[i].Load()
			rp.StragglerRounds[i] = c
			if c > best {
				best, rp.Straggler = c, i
			}
		}
		resp.RoundProfile = rp
	}
	counts := rt.part.Counts()
	for i, s := range rt.shards {
		snap := s.eng.Snapshot()
		cs := s.c.Snapshot()
		resp.PerShard = append(resp.PerShard, ShardStats{
			Shard:        i,
			Epoch:        snap.Epoch,
			Rounds:       snap.AppliedBatches,
			OwnedNodes:   counts[i],
			Arcs:         snap.Edges,
			Events:       cs.EventsProcessed,
			NodesVisited: cs.NodesVisited,
		})
	}
	return resp
}

// buildRegistry registers the router's /metrics families. Families shared
// with the single-engine server keep the same names and semantics
// (aggregated across shards) so existing dashboards and inkstat keep
// working; router- and shard-scoped families are new.
func (rt *Router) buildRegistry() {
	r := rt.reg
	r.GaugeFunc("inkstream_router_shards",
		"Engine shards behind this router.",
		func() float64 { return float64(len(rt.shards)) })
	r.GaugeFunc("inkstream_router_epoch_skew",
		"Max minus min published snapshot epoch across shards (transient while a round publishes).",
		func() float64 { lo, hi := rt.epochs(); return float64(hi - lo) })
	r.GaugeFunc("inkstream_router_cut_fraction",
		"Fraction of arcs crossing shard boundaries at bootstrap (partition quality).",
		func() float64 { return rt.cut.CutFraction })
	r.GaugeFunc("inkstream_snapshot_epoch",
		"Minimum published snapshot epoch across shards.",
		func() float64 { lo, _ := rt.epochs(); return float64(lo) })
	r.GaugeFunc("inkstream_snapshot_lag_batches",
		"Mutation requests accepted by the router but not yet acked (reader staleness bound).",
		func() float64 {
			p := rt.processed.Load()
			a := rt.accepted.Load()
			if a < p {
				return 0
			}
			return float64(a - p)
		})
	r.CounterFunc("inkstream_updates_total",
		"Update rounds applied across all shards (each round is one barrier-synchronised batch).",
		func() float64 { return float64(rt.rounds.Load()) })
	r.CounterFunc("inkstream_http_updates_served_total",
		"Successful mutation requests.",
		func() float64 { return float64(rt.updates.Load()) })
	r.CounterFunc("inkstream_reads_total",
		"Embedding reads resolved against a shard's published snapshot.",
		func() float64 { return float64(rt.reads.Load()) })
	r.GaugeFunc("inkstream_graph_nodes",
		"Vertices in the served graph.",
		func() float64 { return float64(rt.part.NumNodes()) })
	r.GaugeFunc("inkstream_graph_edges",
		"Logical edges in the served graph.",
		func() float64 { return float64(rt.edges.Load()) })
	r.Histogram("inkstream_ack_latency_seconds",
		"Submit-to-ack latency of one mutation request (round formation + per-shard journal + BSP apply + publish).",
		1e-9, rt.ackLat)
	r.Histogram("inkstream_coalesced_batch_size",
		"Mutation requests fused into one BSP round.",
		1, rt.coSize)
	r.CounterFunc("inkstream_coalesce_stalls_total",
		"Rounds sealed early because a queued request conflicted (same edge or same updated vertex).",
		func() float64 { return float64(rt.stalls.Load()) })
	r.CounterFunc("inkstream_rounds_recovered_total",
		"Rounds replayed from the per-shard WALs at startup.",
		func() float64 { return float64(rt.recovered.Load()) })
	r.CounterFunc("inkstream_boundary_records_total",
		"Message-change records delivered across shards for ghost-row refresh and fan-out regeneration.",
		func() float64 { return float64(rt.boundaryRecs.Load()) })
	r.CounterFunc("inkstream_boundary_bytes_total",
		"Payload bytes carried by cross-shard record deliveries.",
		func() float64 { return float64(rt.boundaryBytes.Load()) })
	r.CounterFunc("inkstream_filtered_records_total",
		"Remote record deliveries suppressed by the subscription filter.",
		func() float64 { return float64(rt.filteredRecs.Load()) })
	r.CounterFunc("inkstream_ghost_rows_total",
		"Ghost message rows engines adopted from delivered cross-shard records.",
		func() float64 { return float64(rt.ghostRows.Load()) })
	r.Histogram("inkstream_boundary_round_records",
		"Cross-shard records exchanged per round (all layers).",
		1, rt.recSize)
	r.CounterFunc("inkstream_events_processed_total",
		"InkStream propagation events consumed, summed across shards.",
		func() float64 {
			var total int64
			for _, s := range rt.shards {
				total += s.c.EventsProcessed.Load()
			}
			return float64(total)
		})
	r.LabeledCounterFunc("inkstream_node_visits_total",
		"Per-layer node visits by InkStream condition, summed across shards.",
		func() []obs.LabeledValue {
			counts := make(map[string]int64)
			for _, s := range rt.shards {
				st := s.eng.Snapshot().Conditions
				for c := inkstream.CondPruned; c <= inkstream.CondSelfOnly; c++ {
					counts[c.String()] += st.Counts[c]
				}
			}
			return obs.SortedLabeled("condition", counts)
		})
	r.LabeledGaugeFunc("inkstream_shard_epoch",
		"Published snapshot epoch per shard.",
		func() []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(rt.shards))
			for i, s := range rt.shards {
				out[i] = obs.LabeledValue{
					Labels: shardLabel(i),
					Value:  float64(s.eng.Snapshot().Epoch),
				}
			}
			return out
		})
	r.LabeledGaugeFunc("inkstream_shard_owned_nodes",
		"Vertices owned per shard.",
		func() []obs.LabeledValue {
			counts := rt.part.Counts()
			out := make([]obs.LabeledValue, len(counts))
			for i, n := range counts {
				out[i] = obs.LabeledValue{Labels: shardLabel(i), Value: float64(n)}
			}
			return out
		})
	r.LabeledCounterFunc("inkstream_shard_rounds_total",
		"Update rounds reflected in each shard's published snapshot.",
		func() []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(rt.shards))
			for i, s := range rt.shards {
				out[i] = obs.LabeledValue{
					Labels: shardLabel(i),
					Value:  float64(s.eng.Snapshot().AppliedBatches),
				}
			}
			return out
		})
	r.LabeledCounterFunc("inkstream_shard_events_total",
		"InkStream propagation events consumed per shard.",
		func() []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(rt.shards))
			for i, s := range rt.shards {
				out[i] = obs.LabeledValue{
					Labels: shardLabel(i),
					Value:  float64(s.c.EventsProcessed.Load()),
				}
			}
			return out
		})
	r.LabeledCounterFunc("inkstream_shard_node_visits_total",
		"Node visits per shard (all conditions).",
		func() []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(rt.shards))
			for i, s := range rt.shards {
				out[i] = obs.LabeledValue{
					Labels: shardLabel(i),
					Value:  float64(s.c.NodesVisited.Load()),
				}
			}
			return out
		})

	// Round profiler: critical-path attribution of BSP wall-time
	// (flight.go). compute/barrier are per-shard means, so their sum tracks
	// inkstream_round_bsp_seconds_total and barrier ÷ bsp is the cumulative
	// barrier share.
	r.Histogram("inkstream_round_duration_seconds",
		"One BSP round, open → all shards published; exemplars carry the round ID for /v1/rounds lookup.",
		1e-9, rt.roundDur)
	r.CounterFunc("inkstream_rounds_profiled_total",
		"Rounds captured by the round profiler.",
		func() float64 { return float64(rt.profiled.Load()) })
	r.CounterFunc("inkstream_round_bsp_seconds_total",
		"Barrier-stage wall-time (sum of per-stage makespans) across profiled rounds.",
		func() float64 { return float64(rt.bspNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_compute_seconds_total",
		"Mean participating-shard compute inside barrier stages across profiled rounds.",
		func() float64 { return float64(rt.computeNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_barrier_wait_seconds_total",
		"Mean participating-shard barrier wait (stage makespan minus own compute) across profiled rounds.",
		func() float64 { return float64(rt.barrierNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_broadcast_seconds_total",
		"Router-side record bucketing and sorting time across profiled rounds.",
		func() float64 { return float64(rt.broadcastNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_boundary_seconds_total",
		"Boundary-phase shard compute across profiled rounds (filtered protocol only).",
		func() float64 { return float64(rt.boundaryNS.Load()) * 1e-9 })
	r.CounterFunc("inkstream_round_interior_seconds_total",
		"Interior-phase shard compute across profiled rounds (filtered protocol only).",
		func() float64 { return float64(rt.interiorNS.Load()) * 1e-9 })
	r.GaugeFunc("inkstream_round_barrier_share",
		"Barrier-wait fraction of BSP time in the most recent profiled round.",
		rt.lastShare)
	r.GaugeFunc("inkstream_round_straggler_skew",
		"Max/mean shard compute in the most recent profiled round (1 = balanced).",
		func() float64 { return math.Float64frombits(rt.lastSkew.Load()) })
	r.LabeledCounterFunc("inkstream_shard_straggler_rounds_total",
		"Rounds each shard was the straggler of (slowest total compute).",
		func() []obs.LabeledValue {
			out := make([]obs.LabeledValue, len(rt.stragglerRounds))
			for i := range rt.stragglerRounds {
				out[i] = obs.LabeledValue{
					Labels: shardLabel(i),
					Value:  float64(rt.stragglerRounds[i].Load()),
				}
			}
			return out
		})
	r.CounterFunc("inkstream_traces_recorded_total",
		"Request traces captured by the flight recorder.",
		func() float64 {
			if rt.flight == nil {
				return 0
			}
			return float64(rt.flight.Recorded())
		})
	rt.alerts.Register(r)
	rt.runtime.Register(r)
}

func shardLabel(i int) string { return fmt.Sprintf(`shard="%d"`, i) }
