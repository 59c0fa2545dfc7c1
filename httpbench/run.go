package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
)

// result is one run's outcome: metrics are reported only when correct.
type result struct {
	correct           bool
	failure           string
	attempted, failed int64
	metrics           map[string]metricValue
	provenance        map[string]any
}

// runner holds one invocation's generated inputs and its result so far.
type runner struct {
	cfg     config
	w       workload
	in      *inputs
	st      *streams
	runDir  string
	res     *result
	samples map[string]any
}

// measured is one deployment driven through one pass and gated.
type measured struct {
	d      *deployment
	pr     *passResult
	gate   gateResult
	setups []int64 // ns
}

func execute(cfg config) (*result, error) {
	w := cfg.workload
	in, err := buildInputs(w)
	if err != nil {
		return nil, err
	}
	st, err := genStreams(w, in.g, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg: cfg, w: w, in: in, st: st,
		runDir:  filepath.Join(cfg.work, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())),
		res:     &result{provenance: provenance(cfg, in, st)},
		samples: map[string]any{},
	}
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.runDir)
	r.res.provenance["samples"] = r.samples
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	r.res.correct = r.res.failure == "" && r.res.failed == 0
	return r.res, nil
}

// measure builds reps deployments, timing each set-up and closing all but
// the last, drives the last one through a pass and gates what it serves.
// The deployment is left open for the caller to query and close. A failed
// request or gate is recorded in the result, not returned as an error.
func (r *runner) measure(tag string, reps int, tr *tracer, atStart func(*deployment)) (*measured, error) {
	m := &measured{}
	for i := 0; i < reps; i++ {
		runtime.GC() // time every set-up from the same collected heap
		d, dur, err := deploy(r.w, r.in, filepath.Join(r.runDir, fmt.Sprintf("%s-%d.wal", tag, i)), tr)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, int64(dur))
		if i < reps-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			continue
		}
		m.d = d
	}
	runtime.GC()
	var hook func()
	if atStart != nil {
		hook = func() { atStart(m.d) }
	}
	pr, err := runPass(r.w, r.st, m.d, tr, r.cfg.warmup, r.cfg.window, hook)
	if err != nil {
		m.d.close()
		return nil, err
	}
	m.pr = pr
	r.res.attempted += pr.attempted
	r.res.failed += pr.failed
	if pr.err != nil {
		r.fail(pr.err)
		return m, nil
	}
	want, err := r.reference(pr)
	if err != nil {
		m.d.close()
		return nil, err
	}
	m.gate = gate(m.d.addr, want, r.in.exact(), runtime.NumCPU())
	r.res.provenance["gate"] = gateProvenance(m.gate, r.in)
	if m.gate.err != nil {
		r.fail(m.gate.err)
	}
	return m, nil
}

// reference is gnn.Infer on the final graph a pass left behind.
func (r *runner) reference(pr *passResult) (*gnn.State, error) {
	fg, err := finalGraph(r.in.g, r.st, pr.acked)
	if err != nil {
		return nil, err
	}
	return gnn.Infer(r.in.model, fg, r.in.x, nil)
}

func (r *runner) fail(err error) {
	if r.res.failure == "" {
		r.res.failure = err.Error()
	}
}

// endToEnd is the --trace 0 run: set-up timed setupReps times, then one
// untraced pass.
func (r *runner) endToEnd() error {
	m, err := r.measure("e2e", r.cfg.setupReps, nil, nil)
	if err != nil {
		return err
	}
	if err := m.d.close(); err != nil {
		return err
	}
	if r.res.failure != "" {
		return nil
	}
	values := map[string]float64{}
	endToEndValues(values, r.samples, m.pr)
	values["setup_s"] = percentile(m.setups, 0.5) / 1e9
	r.samples["setup_s"] = len(m.setups)
	r.res.metrics = collect(endToEnd, values)
	return nil
}

// traced is the --trace 1 run: an untraced pass for reference, a traced
// pass on a fresh deployment, then the engine replay.
func (r *runner) traced() error {
	plain, err := r.measure("plain", 1, nil, nil)
	if err != nil {
		return err
	}
	if err := plain.d.close(); err != nil {
		return err
	}
	if r.res.failure != "" {
		return nil
	}

	// The program's own counters, differenced across the traced window.
	var coBefore, coAfter server.CoalesceStats
	var rsBefore, rsAfter shard.StatsResponse
	snap := func(d *deployment, co *server.CoalesceStats, rs *shard.StatsResponse) {
		if d.rt != nil {
			*rs = d.rt.Stats()
		} else {
			*co = d.srv.CoalesceStats()
		}
	}
	tr := newTracer()
	m, err := r.measure("traced", 1, tr, func(d *deployment) { snap(d, &coBefore, &rsBefore) })
	if err != nil {
		return err
	}
	snap(m.d, &coAfter, &rsAfter)
	var rounds []byte
	if m.d.rt != nil && r.res.failure == "" {
		if rounds, err = roundsBody(m.d.addr); err != nil {
			m.d.close()
			return err
		}
	}
	if err := m.d.close(); err != nil {
		return err
	}
	if r.res.failure != "" {
		return nil
	}

	values := map[string]float64{}
	pr := m.pr
	r.spanValues(values, tr, pr, m.d.srv != nil)
	if r.res.failure != "" {
		return nil
	}
	if m.d.srv != nil {
		if n := coAfter.Batches - coBefore.Batches; n > 0 {
			values["server.fused_mean"] = float64(coAfter.Requests-coBefore.Requests) / float64(n)
		}
		values["server.stalls"] = float64(coAfter.Stalls - coBefore.Stalls)
	} else {
		rb, err := diffRounds(rsBefore, rsAfter, rounds, pr.windowStart)
		if err != nil {
			return err
		}
		rb.fill(values)
		r.samples["shard"] = map[string]any{
			"reported_by": "the program: Router.Stats differences and GET /v1/rounds, both over the window",
			"rounds":      rb.rounds, "profiled_rounds_in_window": rb.profiled,
		}
	}
	runtimeValues(values, r.samples, pr)
	untraced := float64(plain.pr.changes) / plain.pr.elapsed.Seconds()
	traced := float64(pr.changes) / pr.elapsed.Seconds()
	values["trace.overhead_frac"] = (untraced - traced) / untraced
	r.res.provenance["trace_overhead"] = map[string]float64{"untraced_upd_per_s": untraced, "traced_upd_per_s": traced}

	if err := r.engineValues(values, pr); err != nil {
		return err
	}
	if r.res.failure != "" {
		return nil
	}
	spanPath := filepath.Join(r.cfg.work, "spans-"+r.w.name+".jsonl")
	if err := tr.writeSpans(spanPath); err != nil {
		return err
	}
	r.res.provenance["spans"] = spanPath
	var missing []string
	moves := map[string]string{}
	for _, m := range perLayer {
		if !slices.Contains(m.layers, r.w.name) {
			missing = append(missing, m.name)
		}
		moves[m.name] = m.moves
	}
	r.res.provenance["not_exercised_read_as_0"] = missing
	r.res.provenance["layer_moves"] = moves
	endToEndValues(map[string]float64{}, r.samples, pr) // sample counts of the traced pass
	r.res.metrics = collect(perLayer, values)
	return nil
}

// spanValues fills the server and persist layers from the traced spans.
func (r *runner) spanValues(values map[string]float64, tr *tracer, pr *passResult, journaled bool) {
	bd := tr.breakdown(int64(pr.windowStart.Sub(tr.epoch)), pr.elapsed)
	values["server.http_overhead_us"] = bd.httpAllUS
	values["server.read_handler_us"] = bd.readHandlerUS
	if !journaled {
		return
	}
	values["server.queue_us"] = bd.queueUS
	values["server.commit_to_ack_us"] = bd.c2aUS
	values["persist.append_us"] = bd.appendUS
	values["persist.records_per_commit"] = bd.recordsPerCommit
	values["persist.busy_frac"] = bd.busyFrac
	r.samples["persist.commits"] = bd.commitsInWindow
	// A request's server and persist spans are consecutive, so they sum to
	// its client latency by construction (tolerance 0). What can go wrong
	// is matching: a journal append paired with the wrong request shows up
	// as a span running backwards, and one paired with none leaves a write
	// without persist spans. Either fails the run.
	r.res.provenance["span_check"] = map[string]any{
		"window_writes":      bd.writes,
		"matched":            bd.matched,
		"negative_span_reqs": bd.negative,
		"unmatched_appends":  tr.unmatched,
		"mean_client_us":     bd.clientUS,
		"mean_span_sum_us":   bd.httpUS + bd.queueUS + bd.appendUS + bd.commitUS + bd.c2aUS,
	}
	if bd.writes == 0 || bd.matched < bd.writes || bd.negative > 0 || tr.unmatched > 0 {
		r.fail(fmt.Errorf("span check: %d window writes, %d matched to their journal append, %d with a negative span, %d unmatched appends",
			bd.writes, bd.matched, bd.negative, tr.unmatched))
	}
}

// runtimeValues fills the runtime layer from runtime/metrics read at the
// traced window's edges.
func runtimeValues(values map[string]float64, samples map[string]any, pr *passResult) {
	if pr.changes > 0 {
		values["runtime.alloc_bytes_per_change"] = float64(pr.rt.allocBytes) / float64(pr.changes)
	}
	if pr.rt.cpu > 0 {
		values["runtime.gc_cpu_frac"] = pr.rt.gcCPU / pr.rt.cpu
	}
	pauses := make([]int64, len(pr.rt.gcPauses))
	for i, s := range pr.rt.gcPauses {
		pauses[i] = int64(s * 1e9)
	}
	values["runtime.gc_pause_p99_us"] = percentile(pauses, 0.99) / 1e3
	samples["gc_pauses"] = len(pauses)
}

// engineValues fills the gnn, graph, inkstream and tensor layers: the
// benchmark's own timed calls of gnn.Infer and graph.PartitionByStrategy,
// and the replay of the traced pass's acknowledged writes.
func (r *runner) engineValues(values map[string]float64, pr *passResult) error {
	var base *gnn.State
	var err error
	values["gnn.infer_s"], err = medianDuration(3, func() (err error) {
		base, err = gnn.Infer(r.in.model, r.in.g, r.in.x, nil)
		return err
	})
	if err != nil {
		return err
	}
	if r.w.shards > 1 {
		values["graph.partition_s"], err = medianDuration(3, func() error {
			_, err := graph.PartitionByStrategy("greedy", r.in.g, r.w.shards)
			return err
		})
		if err != nil {
			return err
		}
	}
	want, err := r.reference(pr)
	if err != nil {
		return err
	}
	eb, err := replay(r.in, base, r.st, pr.ackLog, want, r.in.exact())
	if err != nil {
		r.fail(err)
		return nil
	}
	eb.fill(values)
	r.samples["inkstream"] = map[string]any{
		"applies": eb.applies, "changes": eb.changes, "beyond_p99": beyond(eb.applies, 0.99),
		"replay_max_abs_diff": eb.maxDiff,
	}
	return nil
}
