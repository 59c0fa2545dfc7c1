// Command inkserve runs a long-lived InkStream inference service over a
// generated or saved dataset snapshot: clients stream edge and feature
// updates and read always-fresh embeddings over HTTP.
//
// Usage:
//
//	inkserve -dataset PM -addr :8080
//	inkserve -file snapshot.inks -model sage -agg mean
//	inkserve -bundle engine.inkb            # resume a persisted engine
//	inkserve -dataset PM -save-bundle e.inkb -addr :8080
//	inkserve -dataset PM -pprof -slow-update 5ms   # observability extras
//	inkserve -dataset PA -mem-cap 64m -quantize f16  # tiered row store
//
// Every server exposes Prometheus metrics at GET /metrics; -slow-update /
// -trace-updates log per-layer update traces and -pprof mounts the runtime
// profiler under /debug/pprof/ (see DESIGN.md §7). The flight recorder
// (GET /v1/traces, tune with -trace-ring/-trace-sample), the in-process
// time-series window (GET /v1/timeseries) and the continuous drift audit
// (-audit-every, reported by /healthz together with the -slo ack-latency
// objective) are on by default (DESIGN.md §10). -blackbox <dir> arms the
// incident black box: post-mortem bundles are auto-captured on alert
// firing, drift-audit failure or round fail-stop, served on demand at
// GET /debug/bundle, and rendered offline with inkstat -postmortem
// (DESIGN.md §15).
//
// With -save-bundle the bootstrapped engine is persisted before serving,
// so a later -bundle start skips the initial full-graph inference. See
// internal/server for the HTTP API.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inkserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	handler, addr, err := buildServer(args)
	if err != nil {
		return err
	}
	log.Printf("serving on %s", addr)
	return http.ListenAndServe(addr, handler)
}

// buildServer parses flags and constructs the HTTP handler; split from run
// so tests can exercise the full setup path without binding a port.
// replayWAL applies the batches journaled at path (none when path is empty
// or the log does not exist yet) to engine.
func replayWAL(engine *inkstream.Engine, path string) error {
	if path == "" {
		return nil
	}
	batches, torn, err := persist.ReadWAL(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := persist.Replay(engine, batches); err != nil {
		return err
	}
	log.Printf("replayed %d WAL batches (torn tail: %v)", len(batches), torn)
	return nil
}

func buildServer(args []string) (http.Handler, string, error) {
	fs := flag.NewFlagSet("inkserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		name       = fs.String("dataset", "", "dataset profile to generate")
		file       = fs.String("file", "", "saved snapshot to load (alternative to -dataset)")
		bundle     = fs.String("bundle", "", "persisted engine bundle to resume (alternative to -dataset/-file)")
		saveBundle = fs.String("save-bundle", "", "persist the bootstrapped engine to this path before serving")
		scale      = fs.Int64("scale", 8, "extra down-scaling with -dataset")
		seed       = fs.Int64("seed", 1, "generator seed")
		modelName  = fs.String("model", "gcn", "model: gcn, sage or gin")
		aggName    = fs.String("agg", "max", "aggregation: max, min, mean or sum")
		hidden     = fs.Int("hidden", 32, "hidden dimension")
		shards     = fs.Int("shards", 1, "engine shards: >1 serves the graph from a partitioned multi-engine deployment (-wal becomes a WAL directory)")
		partition  = fs.String("partition", "hash", "vertex partition strategy with -shards>1: hash, block or greedy (locality-aware)")
		walPath    = fs.String("wal", "", "write-ahead log path: applied batches are journaled, and with -bundle the log is replayed on startup")
		slowUpdate = fs.Duration("slow-update", 0, "log a full per-layer trace for updates slower than this (0 disables)")
		traceAll   = fs.Bool("trace-updates", false, "log a per-layer trace for every update (verbose)")
		pprofOn    = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		memCap    = fs.String("mem-cap", "", "enable the tiered row store: soft cap on resident embedding page bytes, e.g. 512k, 64m, 1g (empty keeps everything resident)")
		pageBytes = fs.String("page-bytes", "64k", "tiered store page payload size (requires -mem-cap)")
		quantize  = fs.String("quantize", "f32", "tiered store on-page row encoding: f32 (bit-exact), f16 or int8 (requires -mem-cap)")
		storeDir  = fs.String("store-dir", "", "tiered store spill directory (requires -mem-cap; default: a fresh temp dir)")

		traceRing   = fs.Int("trace-ring", 256, "flight-recorder ring size for GET /v1/traces (0 disables request tracing)")
		traceSample = fs.Int("trace-sample", 64, "record 1 in N pipeline requests in the flight recorder (slow/failed requests are always recorded)")
		slo         = fs.Duration("slo", 0, "ack-latency p99 objective: /healthz reports degraded above it (0 disables)")
		auditEvery  = fs.Uint64("audit-every", 256, "shadow-recompute a drift audit every N applied updates (0 disables)")
		auditSample = fs.Int("audit-sample", 16, "nodes shadow-recomputed per drift audit")
		auditTol    = fs.Float64("audit-tol", 0, "max abs drift tolerated by the audit (0 keeps the default 2e-3)")

		blackboxDir      = fs.String("blackbox", "", "incident black box dump directory: auto-capture post-mortem bundles on alert firing, audit failure or fail-stop, and serve GET /debug/bundle (empty disables)")
		blackboxProfiles = fs.Bool("blackbox-profiles", false, "include pprof heap and goroutine profiles in captured bundles (requires -blackbox)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	if *shards <= 1 {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "partition" {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return nil, "", fmt.Errorf("%s: partitioned-deployment flags require -shards>1", strings.Join(bad, ", "))
		}
	}

	// Tiered-store flag validation: meaningless combinations fail fast
	// instead of silently serving a misconfigured cache.
	tiered := *memCap != ""
	var (
		tieredCap  int64
		tieredPage int64
		tieredQ    tensor.Quant
	)
	if !tiered {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "page-bytes" || f.Name == "quantize" || f.Name == "store-dir" {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return nil, "", fmt.Errorf("%s: tiered-store flags require -mem-cap", strings.Join(bad, ", "))
		}
	} else {
		var err error
		if tieredCap, err = parseBytes(*memCap); err != nil {
			return nil, "", fmt.Errorf("-mem-cap: %w", err)
		}
		if tieredPage, err = parseBytes(*pageBytes); err != nil {
			return nil, "", fmt.Errorf("-page-bytes: %w", err)
		}
		if tieredQ, err = tensor.ParseQuant(*quantize); err != nil {
			return nil, "", fmt.Errorf("-quantize: %w", err)
		}
		if tieredCap < tieredPage {
			return nil, "", fmt.Errorf("-mem-cap %s is smaller than one -page-bytes page (%s): the cache could never hold a single page", *memCap, *pageBytes)
		}
	}

	if *shards > 1 {
		if *bundle != "" || *saveBundle != "" {
			return nil, "", fmt.Errorf("-shards is incompatible with -bundle/-save-bundle (engine bundles are single-engine)")
		}
		// Genuinely single-engine flags fail fast instead of being silently
		// ignored: per-layer update tracing, the shadow drift auditor and the
		// tiered store have no router equivalent. fs.Visit only reports
		// flags the user actually set, so defaults pass.
		singleOnly := map[string]bool{
			"slow-update": true, "trace-updates": true, "audit-every": true,
			"audit-sample": true, "audit-tol": true, "mem-cap": true,
			"page-bytes": true, "quantize": true, "store-dir": true,
		}
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if singleOnly[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return nil, "", fmt.Errorf("%s: single-engine flags with no sharded equivalent; drop them or run with -shards=1", strings.Join(bad, ", "))
		}
		g, feats, err := loadData(fs, *file, *name, *scale, *seed)
		if err != nil {
			return nil, "", err
		}
		model, err := buildModel(*modelName, *aggName, *hidden, feats.Dim(), *seed)
		if err != nil {
			return nil, "", err
		}
		log.Printf("bootstrapping %s over %d nodes / %d edges across %d shards …",
			model.Name, g.NumNodes(), g.NumEdges(), *shards)
		var d metrics.Stopwatch
		d.Start()
		rt, err := shard.New(model, g, feats.X, shard.Config{
			Shards:            *shards,
			WALDir:            *walPath,
			PartitionStrategy: *partition,
		})
		d.Stop()
		if err != nil {
			return nil, "", err
		}
		st := rt.Stats()
		log.Printf("initial inference done in %v (%s partition, cut fraction %.3f)", d.Elapsed(), st.PartitionStrategy, st.CutFraction)
		if st.RecoveredRounds > 0 {
			log.Printf("replayed %d rounds from the shard WALs", st.RecoveredRounds)
		}
		if *walPath != "" {
			log.Printf("journaling rounds to per-shard WALs under %s", *walPath)
		}
		if *traceRing != 256 || *traceSample != 64 {
			rt.SetTraceSampling(*traceRing, *traceSample)
			log.Printf("flight recorder: ring=%d sample=1/%d", *traceRing, *traceSample)
		}
		if *slo > 0 {
			rt.SetHealthSLO(*slo)
			log.Printf("healthz SLO: ack p99 <= %v (burn-rate alerts at /v1/alerts)", *slo)
		}
		if *blackboxDir != "" {
			rt.EnableBlackBox(obs.BlackBoxConfig{Dir: *blackboxDir, Profiles: *blackboxProfiles})
			log.Printf("incident black box: bundles under %s (GET /debug/bundle for on-demand capture)", *blackboxDir)
		} else if *blackboxProfiles {
			return nil, "", fmt.Errorf("-blackbox-profiles requires -blackbox")
		}
		handler := withPprof(rt.Handler(), *pprofOn)
		return handler, *addr, nil
	}

	var counters metrics.Counters
	var engine *inkstream.Engine

	if *bundle != "" {
		g, model, state, err := persist.LoadBundleFile(*bundle)
		if err != nil {
			return nil, "", err
		}
		engine, err = inkstream.NewFromState(model, g, state, &counters, inkstream.Options{})
		if err != nil {
			return nil, "", err
		}
		log.Printf("resumed %s over %d nodes / %d edges from %s",
			model.Name, g.NumNodes(), g.NumEdges(), *bundle)
		if err := replayWAL(engine, *walPath); err != nil {
			return nil, "", err
		}
	} else {
		g, feats, err := loadData(fs, *file, *name, *scale, *seed)
		if err != nil {
			return nil, "", err
		}
		model, err := buildModel(*modelName, *aggName, *hidden, feats.Dim(), *seed)
		if err != nil {
			return nil, "", err
		}

		log.Printf("bootstrapping %s over %d nodes / %d edges …", model.Name, g.NumNodes(), g.NumEdges())
		var d metrics.Stopwatch
		d.Start()
		engine, err = inkstream.New(model, g, feats.X, &counters, inkstream.Options{})
		d.Stop()
		if err != nil {
			return nil, "", err
		}
		log.Printf("initial inference done in %v", d.Elapsed())
		// Bootstrap is deterministic, so the journal replays onto it exactly
		// as onto a bundle — and before -save-bundle, whose bundle then
		// covers the replayed batches the truncation below drops.
		if err := replayWAL(engine, *walPath); err != nil {
			return nil, "", err
		}
		if *saveBundle != "" {
			if err := persist.SaveBundleFile(*saveBundle, engine.Graph(), model, engine.State()); err != nil {
				return nil, "", err
			}
			log.Printf("persisted engine bundle to %s", *saveBundle)
			if *walPath != "" {
				// A fresh bundle supersedes any previous journal.
				if err := os.Truncate(*walPath, 0); err != nil && !os.IsNotExist(err) {
					return nil, "", err
				}
			}
		}
	}
	var (
		tieredStore *persist.TieredStore
		faultLat    *obs.Histogram
	)
	if tiered {
		dir := *storeDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "inkserve-pages-"); err != nil {
				return nil, "", err
			}
		}
		faultLat = obs.NewLatencyHistogram()
		var err error
		tieredStore, err = persist.NewTieredStore(persist.TieredConfig{
			Dir:          dir,
			Dim:          engine.Output().Cols,
			PageBytes:    int(tieredPage),
			MemCap:       tieredCap,
			Quant:        tieredQ,
			FaultLatency: faultLat,
		})
		if err != nil {
			return nil, "", err
		}
		if err := engine.SetRowStore(tieredStore); err != nil {
			return nil, "", err
		}
		log.Printf("tiered row store: cap=%s page=%s (%d rows/page) quant=%s spill=%s",
			*memCap, *pageBytes, tieredStore.PageRows(), tieredQ, dir)
	}
	srv := server.New(engine, &counters)
	if tieredStore != nil {
		srv.EnablePageCache(tieredStore.Stats, faultLat, tieredQ.String())
	}
	if *walPath != "" {
		wal, err := persist.OpenWAL(*walPath)
		if err != nil {
			return nil, "", err
		}
		srv.SetJournal(wal)
		log.Printf("journaling updates to %s", *walPath)
	}
	if *slowUpdate > 0 || *traceAll {
		srv.EnableSlowUpdateLog(*slowUpdate, *traceAll, nil)
		log.Printf("update tracing enabled: slow-update=%v trace-all=%v", *slowUpdate, *traceAll)
	}
	if *traceRing != 256 || *traceSample != 64 {
		srv.SetTraceSampling(*traceRing, *traceSample)
		if *slowUpdate > 0 {
			srv.SetSlowTraceThreshold(*slowUpdate)
		}
		log.Printf("flight recorder: ring=%d sample=1/%d", *traceRing, *traceSample)
	}
	if *slo > 0 {
		srv.SetHealthSLO(*slo)
		log.Printf("healthz SLO: ack p99 <= %v", *slo)
	}
	if *auditEvery > 0 {
		srv.EnableDriftAudit(*auditEvery, *auditSample, float32(*auditTol))
		log.Printf("drift audit: every %d updates, %d nodes sampled", *auditEvery, *auditSample)
	}
	if *blackboxDir != "" {
		srv.EnableBlackBox(obs.BlackBoxConfig{Dir: *blackboxDir, Profiles: *blackboxProfiles})
		log.Printf("incident black box: bundles under %s (GET /debug/bundle for on-demand capture)", *blackboxDir)
	} else if *blackboxProfiles {
		return nil, "", fmt.Errorf("-blackbox-profiles requires -blackbox")
	}
	handler := withPprof(srv.Handler(), *pprofOn)
	return handler, *addr, nil
}

// parseBytes parses a human-friendly byte size: a plain number with an
// optional k/m/g (KiB/MiB/GiB) suffix, case-insensitive, e.g. "512k",
// "64m", "1g".
func parseBytes(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "g"):
		mult, t = 1<<30, t[:len(t)-1]
	case strings.HasSuffix(t, "m"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "k"):
		mult, t = 1<<10, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 65536, 512k, 64m, 1g)", s)
	}
	return n * mult, nil
}

// loadData resolves the -file / -dataset flags into a graph and features.
func loadData(fs *flag.FlagSet, file, name string, scale, seed int64) (*graph.Graph, *dataset.Features, error) {
	switch {
	case file != "":
		return dataset.LoadFile(file)
	case name != "":
		spec, err := dataset.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		spec.Scale *= scale
		g, feats := dataset.Generate(spec, seed)
		log.Printf("generated %s", spec)
		return g, feats, nil
	default:
		fs.Usage()
		return nil, nil, fmt.Errorf("one of -dataset, -file or -bundle is required")
	}
}

// buildModel constructs the named model over the dataset's feature size.
func buildModel(modelName, aggName string, hidden, dim int, seed int64) (*gnn.Model, error) {
	agg, err := gnn.ParseAggKind(aggName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 100))
	switch modelName {
	case "gcn":
		return gnn.NewGCN(rng, dim, hidden, gnn.NewAggregator(agg)), nil
	case "sage":
		return gnn.NewSAGE(rng, dim, hidden, gnn.NewAggregator(agg)), nil
	case "gin":
		return gnn.NewGIN(rng, dim, hidden, 5, gnn.NewAggregator(agg)), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want gcn, sage or gin)", modelName)
	}
}

// withPprof wraps handler with the /debug/pprof/ endpoints when enabled.
func withPprof(handler http.Handler, on bool) http.Handler {
	if !on {
		return handler
	}
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof enabled at /debug/pprof/")
	return mux
}
