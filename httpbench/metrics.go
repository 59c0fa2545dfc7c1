package main

import (
	"math"
	"math/bits"
	"sort"
)

// metricDef names one reported metric. moves records, before any
// measurement, which end-to-end metric a per-layer metric should move and
// on which workload (the layer → end-to-end mapping later changes are
// judged against); layers lists the workloads that exercise it; elsewhere
// it reads 0.
type metricDef struct {
	name, unit, better string
	moves              string
	layers             []string
}

var all3 = []string{"crowd", "scatter", "mixed"}

// endToEnd are the metrics a user of the service sees, reported with
// --trace 0. Every workload reads embeddings under write load (crowd and
// scatter from their writer connections at probeChanges' rate, so their
// reads_per_s follows upd_per_s; mixed from a dedicated reader), so every
// metric exists on every workload.
var endToEnd = []metricDef{
	{name: "upd_per_s", unit: "1/s", better: "higher"},
	{name: "ack_p50_ms", unit: "ms", better: "lower"},
	{name: "ack_p90_ms", unit: "ms", better: "lower"},
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "read_p90_us", unit: "us", better: "lower"},
	{name: "reads_per_s", unit: "1/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
}

var (
	single  = []string{"crowd", "mixed"}
	sharded = []string{"scatter"}
)

// perLayer are the traced run's metrics (--trace 1).
var perLayer = []metricDef{
	{"server.http_overhead_us", "us", "lower", "ack_p50_ms, upd_per_s on crowd; no change on scatter", all3},
	{"server.queue_us", "us", "lower", "ack_p50_ms, upd_per_s on crowd; no change on scatter", single},
	{"server.commit_to_ack_us", "us", "lower", "ack_p50_ms, upd_per_s on crowd; no change on scatter", single},
	{"server.fused_mean", "count", "higher", "ack_p50_ms, upd_per_s on crowd; no change on scatter", single},
	{"server.stalls", "count", "lower", "ack_p50_ms, upd_per_s on crowd; no change on scatter", single},
	{"server.read_handler_us", "us", "lower", "read_p90_us on mixed", all3},
	{"persist.append_us", "us", "lower", "ack_p50_ms, upd_per_s on crowd; little on scatter", single},
	{"persist.records_per_commit", "count", "higher", "ack_p50_ms, upd_per_s on crowd; little on scatter", single},
	{"persist.busy_frac", "ratio", "lower", "ack_p50_ms, upd_per_s on crowd; little on scatter", single},
	{"inkstream.apply_us_p50", "us", "lower", "upd_per_s on scatter; small on crowd", all3},
	{"inkstream.apply_us_p99", "us", "lower", "upd_per_s on scatter; small on crowd", all3},
	{"inkstream.publish_us", "us", "lower", "ack_p50_ms on mixed", all3},
	{"inkstream.l0.us", "us", "lower", "upd_per_s on scatter; small on crowd", all3},
	{"inkstream.l1.us", "us", "lower", "upd_per_s on scatter; small on crowd", all3},
	{"inkstream.visited_per_change", "count", "lower", "upd_per_s on scatter; small on crowd", all3},
	{"inkstream.events_per_change", "count", "lower", "upd_per_s on scatter; small on crowd", all3},
	{"inkstream.bytes_fetched_per_change", "bytes", "lower", "upd_per_s on scatter; small on crowd", all3},
	{"inkstream.cond.pruned_frac", "ratio", "higher", "upd_per_s on scatter", all3},
	{"inkstream.cond.no-reset_frac", "ratio", "higher", "upd_per_s on scatter", all3},
	{"inkstream.cond.covered-reset_frac", "ratio", "higher", "upd_per_s on scatter", all3},
	{"inkstream.cond.exposed-reset_frac", "ratio", "lower", "upd_per_s on scatter", all3},
	{"inkstream.cond.accumulative_frac", "ratio", "higher", "ack_p50_ms on mixed", all3},
	{"tensor.flops_per_change", "count", "lower", "upd_per_s on scatter", all3},
	{"shard.reqs_per_round", "count", "higher", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.round_us_p50", "us", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.round_us_p99", "us", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.compute_us", "us", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.barrier_share", "ratio", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.broadcast_share", "ratio", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.straggler_skew", "ratio", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.boundary_records_per_round", "count", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"shard.ghost_rows_per_round", "count", "lower", "upd_per_s, ack_p90_ms on scatter", sharded},
	{"gnn.infer_s", "s", "lower", "setup_s on every workload", all3},
	{"graph.partition_s", "s", "lower", "setup_s on scatter", sharded},
	{"runtime.alloc_bytes_per_change", "bytes", "lower", "ack_p90_ms on crowd, read_p90_us on mixed", all3},
	{"runtime.gc_cpu_frac", "ratio", "lower", "ack_p90_ms on crowd, read_p90_us on mixed", all3},
	{"runtime.gc_pause_p99_us", "us", "lower", "ack_p90_ms on crowd, read_p90_us on mixed", all3},
	{"trace.overhead_frac", "ratio", "lower", "none: upd_per_s lost to tracing, traced vs untraced pass", all3},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect renders values for every metric of defs, in the result line's
// shape. A metric with no value (its layer is not exercised by the
// workload) reads 0; NaN and ±Inf, which JSON cannot carry, read 0 too.
func collect(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// percentile is the nearest-rank q-quantile of xs (xs is not modified).
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return float64(s[k])
}

// beyond is how many samples of n lie above the nearest-rank q-quantile:
// the sample count a reported tail percentile rests on.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// hist is a log-linear histogram of nanosecond latencies with a fixed
// number of buckets: exact below 2^(histSubBits+1) ns, then 2^histSubBits
// buckets per power of two, so a bucket is at most 0.1% of its values
// wide. Its memory is fixed when it is made, whatever it counts.
type hist struct {
	counts []int64
	n      int64
}

const (
	histSubBits = 10
	histMaxBits = 48 // values from 2^48 ns (about 78 hours) share the last bucket
	histBuckets = (histMaxBits - histSubBits) << histSubBits
)

func newHist() *hist { return &hist{counts: make([]int64, histBuckets)} }

func histIndex(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 2<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return min(e<<histSubBits+int(v>>e), histBuckets-1)
}

// histMid is the midpoint of bucket i's value range.
func histMid(i int) float64 {
	if i < 2<<histSubBits {
		return float64(i)
	}
	e := i>>histSubBits - 1
	lo := uint64(i-e<<histSubBits) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile, as the midpoint of the bucket
// it falls in (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	k := min(max(int64(math.Ceil(q*float64(h.n))), 1), h.n)
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= k {
			return histMid(i)
		}
	}
	return histMid(len(h.counts) - 1)
}
