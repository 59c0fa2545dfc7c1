// Command httpbench is the repository's end-to-end benchmark. It builds the
// deployments inkserve builds, drives one of three named closed-loop
// workloads (crowd, scatter, mixed) against them over HTTP on a loopback
// listener from this one process, checks every served embedding against a
// full recompute, and prints the metrics as the last line of stdout:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// preceded by a provenance line. Run it from the repository root through
// run.sh, which builds it first:
//
//	bash httpbench/run.sh --workload crowd --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced, and reports the per-layer breakdown
// (server, persist, inkstream, tensor, shard, gnn, graph, runtime) plus
// the tracing overhead; its spans are written under --work.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload  workload
	seed      int64
	window    time.Duration
	trace     bool
	work      string
	warmup    time.Duration
	setupReps int
}

// setupReps is how many deployments an end-to-end run builds to time
// set-up: about one per second of window, odd so the median is one of
// them, at most 21 (a single set-up under 300ms varied by ±20%).
func setupReps(window time.Duration) int {
	return min(21, 1+2*int(window/(2*time.Second)))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("httpbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: crowd, scatter or mixed")
	seed := fset.Int64("seed", 1, "seed of the request streams")
	seconds := fset.Float64("seconds", 20, "length of the measured window")
	trace := fset.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	work := fset.String("work", ".bench_build", "directory for WALs and span dumps")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = errors.New("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "httpbench:", err)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	cfg := config{
		workload: w, seed: *seed, window: window, trace: *trace == 1, work: *work,
		warmup: min(2*time.Second, window/10), setupReps: setupReps(window),
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "httpbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": res.provenance}); err != nil {
		fmt.Fprintln(stderr, "httpbench:", err)
		return 1
	}
	line := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   map[string]metricValue{},
	}
	if res.correct {
		line["metrics"] = res.metrics
	} else {
		fmt.Fprintln(stderr, "httpbench: run failed:", res.failure)
	}
	if err := enc.Encode(line); err != nil {
		fmt.Fprintln(stderr, "httpbench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// endToEndValues fills the user-visible metrics of one pass and the sample
// count behind each percentile.
//
// The tail reported is p90. Higher percentiles sat on knees of the latency
// distributions and jumped between identical runs: on crowd, 1–1.5% of
// requests stall for a scheduler tick (~4ms) between client and handler,
// so p99 flipped between 0.7 and 2.4ms; on scatter, ~11% of reads wait for
// a BSP stage of the other writer's round to end, and p95 fell in the
// sparse middle of that wait (its run-to-run range was 18%, p90's 4%); on
// mixed, p95 ranged 20–34% and p90 7.5%. p99 stays in the provenance.
func endToEndValues(values map[string]float64, samples map[string]any, pr *passResult) {
	secs := pr.elapsed.Seconds()
	acks, reads := pr.ackLat, pr.readLat
	values["upd_per_s"] = float64(pr.changes) / secs
	values["reads_per_s"] = float64(reads.n) / secs
	values["ack_p50_ms"] = acks.quantile(0.50) / 1e6
	values["ack_p90_ms"] = acks.quantile(0.90) / 1e6
	values["read_p50_us"] = reads.quantile(0.50) / 1e3
	values["read_p90_us"] = reads.quantile(0.90) / 1e3
	values["peak_heap_mb"] = float64(pr.rt.peakHeapBytes) / 1e6
	samples["ack"] = map[string]any{"n": acks.n, "beyond_p90": beyond(int(acks.n), 0.90),
		"p99_ms": acks.quantile(0.99) / 1e6}
	samples["read"] = map[string]any{"n": reads.n, "beyond_p90": beyond(int(reads.n), 0.90),
		"p99_us": reads.quantile(0.99) / 1e3}
	samples["window_s"] = secs
	samples["changes"] = pr.changes
	samples["fail_frac"] = float64(pr.failed) / float64(max(pr.attempted, 1))
	samples["changes_by_second"] = pr.changesBySecond
}

func gateProvenance(g gateResult, in *inputs) map[string]any {
	out := map[string]any{"nodes": g.nodes, "max_abs_diff": g.maxDiff, "exact": in.exact(), "tolerance": 0.0, "passed": g.err == nil}
	if !in.exact() {
		out["tolerance"] = gateTol
	}
	return out
}

// provenance records what the numbers were measured on.
func provenance(cfg config, in *inputs, st *streams) map[string]any {
	w := cfg.workload
	commit := "none (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    commit,
		"source_sha256": sourceDigest("."),
		"seed":          cfg.seed,
		"trace":         cfg.trace,
		"window_s":      cfg.window.Seconds(),
		"warmup_s":      cfg.warmup.Seconds(),
		"setup_reps":    cfg.setupReps,
		"reads":         readsProvenance(w),
		"client_memory": "peak_heap_mb and the runtime layer read the one process that runs client and program; the client's share is its pre-generated streams, fixed-size latency histograms and connection buffers, none of which grows with throughput outside the traced pass, plus net/http's per-response allocations in runtime.alloc_bytes_per_change",
		"wal":           "single engine: persist.WAL under --work with no flush or fsync per group commit (disk latency out of scope); router: none",
		"workload": map[string]any{
			"name": w.name, "why": w.why,
			"dataset": in.spec.Name, "nodes": in.g.NumNodes(), "edges": in.g.NumEdges(),
			"feature_len": in.x.Cols, "model": in.model.Name, "agg": w.agg.String(),
			"hidden": w.hidden, "shards": w.shards, "changes_per_request": w.batch,
			"writer_conns": w.writers, "reader_conns": w.readers, "read_every_changes": probeChanges, "writers_probe_reads": w.probe,
			"pool_per_writer": w.poolSize, "toggle_cycles": toggleCycles, "hub": st.hub, "loop": "closed",
		},
	}
}

func readsProvenance(w workload) string {
	if w.probe {
		return fmt.Sprintf("each writer reads one Zipf(1.3, 4) node per %d acknowledged changes: read latency is measured, reads_per_s is upd_per_s/%d by construction", probeChanges, probeChanges)
	}
	return fmt.Sprintf("%d closed-loop reader connection(s) of Zipf(1.3, 4) nodes: read latency and throughput are both measured", w.readers)
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result can be tied to the code it measured without git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
