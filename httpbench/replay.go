package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// engineBreakdown is the inkstream/tensor attribution from replaying a
// pass's acknowledged writes, one Engine.Apply per request in ack order,
// into a bare engine built from the bootstrap state.
type engineBreakdown struct {
	applies, changes   int
	applyP50, applyP99 float64 // µs
	publishUS          float64 // mean µs per PublishSnapshot
	layerUS            []float64
	counters           metrics.Snapshot
	conds              inkstream.ConditionStats
	maxDiff            float64 // replayed output vs full recompute on the final graph
}

// replay re-applies the acknowledged writes. Layer boundaries come from
// the Options.Trace callbacks, which the engine invokes for every visited
// node once its layer has finished: layer k ends at the last callback
// for k, and layer 0 starts when Apply is called (so it includes delta
// validation and graph mutation). The final state is checked against want.
func replay(in *inputs, base *gnn.State, st *streams, acks []ack, want *gnn.State, exact bool) (engineBreakdown, error) {
	L := in.model.NumLayers()
	var b engineBreakdown
	b.layerUS = make([]float64, L)
	var counters metrics.Counters
	epoch := time.Now()
	last := make([]int64, L)
	seen := make([]bool, L)
	opts := inkstream.Options{Trace: func(l int, _ graph.NodeID, _ inkstream.Condition) {
		last[l] = int64(time.Since(epoch))
		seen[l] = true
	}}
	eng, err := inkstream.NewFromState(in.model, in.g.Clone(), base.Clone(), &counters, opts)
	if err != nil {
		return b, err
	}
	eng.PublishSnapshot() // epoch 1, as server.New does
	order := append([]ack(nil), acks...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	applies := make([]int64, 0, len(order))
	var publish int64
	layerNS := make([]int64, L)
	for _, a := range order {
		s := st.writers[a.writer]
		d := s.ups[a.idx%len(s.ups)].delta
		clear(seen)
		t0 := int64(time.Since(epoch))
		if err := eng.Apply(d, nil); err != nil {
			return b, fmt.Errorf("replaying writer %d request %d: %w", a.writer, a.idx, err)
		}
		t1 := int64(time.Since(epoch))
		eng.PublishSnapshot()
		publish += int64(time.Since(epoch)) - t1
		applies = append(applies, t1-t0)
		prev := t0
		for l := 0; l < L; l++ {
			if seen[l] {
				layerNS[l] += last[l] - prev
				prev = last[l]
			}
		}
		b.changes += len(d)
	}
	b.applies = len(applies)
	if b.applies > 0 {
		b.applyP50 = percentile(applies, 0.50) / 1e3
		b.applyP99 = percentile(applies, 0.99) / 1e3
		b.publishUS = float64(publish) / float64(b.applies) / 1e3
		for l := range layerNS {
			b.layerUS[l] = float64(layerNS[l]) / float64(b.applies) / 1e3
		}
	}
	b.counters = counters.Snapshot()
	b.conds = *eng.Stats()
	out, ref := eng.Output(), want.Output()
	for i := 0; i < out.Rows; i++ {
		d, ok := compareRow(out.Row(i), ref.Row(i), exact, gateTol)
		b.maxDiff = max(b.maxDiff, d)
		if !ok {
			return b, fmt.Errorf("replayed engine row %d differs from full recompute (max diff %g)", i, d)
		}
	}
	return b, nil
}

// fill reports the replay as inkstream and tensor metrics: per-change
// counts from metrics.Counters, visit shares from Engine.Stats.
func (b *engineBreakdown) fill(values map[string]float64) {
	values["inkstream.apply_us_p50"] = b.applyP50
	values["inkstream.apply_us_p99"] = b.applyP99
	values["inkstream.publish_us"] = b.publishUS
	for l, us := range b.layerUS {
		values[fmt.Sprintf("inkstream.l%d.us", l)] = us
	}
	if b.changes > 0 {
		c := float64(b.changes)
		values["inkstream.visited_per_change"] = float64(b.counters.NodesVisited) / c
		values["inkstream.events_per_change"] = float64(b.counters.EventsProcessed) / c
		values["inkstream.bytes_fetched_per_change"] = float64(b.counters.BytesFetched) / c
		values["tensor.flops_per_change"] = float64(b.counters.FLOPs) / c
	}
	for c := range b.conds.Counts {
		cond := inkstream.Condition(c)
		if cond != inkstream.CondSelfOnly {
			values["inkstream.cond."+cond.String()+"_frac"] = b.conds.Fraction(cond)
		}
	}
}

// roundBreakdown is the router's own account of its BSP rounds over the
// traced window: counts differenced from Router.Stats() across it, timings
// from the rounds GET /v1/rounds retains that started inside it (the
// traced deployment's ring holds the whole pass, see roundRing). Both are
// reported by the program, not measured by the benchmark.
type roundBreakdown struct {
	rounds, profiled     int // rounds per Router.Stats; profiled rounds that started in the window
	reqsPerRound         float64
	roundP50, roundP99   float64 // µs, profiled rounds
	computeUS            float64 // mean per round of Σ stages (mean participating-shard compute)
	barrierShare         float64
	broadcastShare       float64
	stragglerSkew        float64
	boundaryRecsPerRound float64
	ghostRowsPerRound    float64
}

func (b *roundBreakdown) fill(values map[string]float64) {
	values["shard.reqs_per_round"] = b.reqsPerRound
	values["shard.round_us_p50"] = b.roundP50
	values["shard.round_us_p99"] = b.roundP99
	values["shard.compute_us"] = b.computeUS
	values["shard.barrier_share"] = b.barrierShare
	values["shard.broadcast_share"] = b.broadcastShare
	values["shard.straggler_skew"] = b.stragglerSkew
	values["shard.boundary_records_per_round"] = b.boundaryRecsPerRound
	values["shard.ghost_rows_per_round"] = b.ghostRowsPerRound
}

func diffRounds(before, after shard.StatsResponse, body []byte, windowStart time.Time) (roundBreakdown, error) {
	var b roundBreakdown
	rounds := after.Rounds - before.Rounds
	if rounds > 0 {
		b.rounds = int(rounds)
		b.reqsPerRound = float64(after.UpdatesServed-before.UpdatesServed) / float64(rounds)
		b.boundaryRecsPerRound = float64(after.BoundaryRecords-before.BoundaryRecords) / float64(rounds)
		b.ghostRowsPerRound = float64(after.GhostRows-before.GhostRows) / float64(rounds)
	}
	var resp struct {
		Recorded int64 `json:"recorded"`
		Rounds   []struct {
			Start         time.Time `json:"start"`
			TotalUS       float64   `json:"total_us"`
			BSPUS         float64   `json:"bsp_us"`
			BroadcastUS   float64   `json:"broadcast_us"`
			StragglerSkew float64   `json:"straggler_skew"`
			Stages        []struct {
				Shards []struct {
					ComputeUS float64 `json:"compute_us"`
					BarrierUS float64 `json:"barrier_us"`
					Skipped   bool    `json:"skipped"`
				} `json:"shards"`
			} `json:"stages"`
		} `json:"rounds"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return b, fmt.Errorf("decoding /v1/rounds: %w", err)
	}
	if resp.Recorded > int64(len(resp.Rounds)) {
		return b, fmt.Errorf("/v1/rounds kept %d of %d rounds: the profile ring does not cover the pass", len(resp.Rounds), resp.Recorded)
	}
	var totals []int64
	var wait, comp, bsp, bcast, skew float64
	for _, r := range resp.Rounds {
		if r.Start.Before(windowStart) {
			continue
		}
		b.profiled++
		totals = append(totals, int64(r.TotalUS*1e3))
		bsp += r.BSPUS
		bcast += r.BroadcastUS
		skew += r.StragglerSkew
		for _, st := range r.Stages {
			var c float64
			var k int
			for _, sh := range st.Shards {
				if sh.Skipped {
					continue
				}
				wait += sh.BarrierUS
				comp += sh.ComputeUS
				c += sh.ComputeUS
				k++
			}
			if k > 0 {
				b.computeUS += c / float64(k)
			}
		}
	}
	if b.profiled == 0 {
		return b, nil
	}
	n := float64(b.profiled)
	b.roundP50 = percentile(totals, 0.50) / 1e3
	b.roundP99 = percentile(totals, 0.99) / 1e3
	b.computeUS /= n
	b.stragglerSkew = skew / n
	if wait+comp > 0 {
		b.barrierShare = wait / (wait + comp)
	}
	if bsp > 0 {
		b.broadcastShare = bcast / bsp
	}
	return b, nil
}

// medianDuration times f reps times and returns the median, in seconds.
func medianDuration(reps int, f func() error) (float64, error) {
	ds := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, int64(time.Since(t0)))
	}
	return percentile(ds, 0.5) / 1e9, nil
}
