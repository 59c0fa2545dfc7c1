// Package server exposes an InkStream engine as an HTTP service: a
// long-running inference daemon that accepts streaming edge and
// vertex-feature updates and serves always-fresh embeddings — the
// "real-time inference in dynamic settings" deployment the paper targets.
//
// Endpoints:
//
//	POST /v1/update     {"changes":[{"u":1,"v":2,"insert":true}, …]}
//	POST /v1/features   {"updates":[{"node":1,"x":[…]}, …]}
//	GET  /v1/embedding?node=N
//	GET  /v1/stats
//	GET  /v1/healthz    (also /healthz; degraded detection, uptime, epoch)
//	GET  /v1/traces     (flight recorder: last N request-scoped pipeline traces)
//	GET  /v1/timeseries (in-process time-series window, ~1s × 10min)
//	GET  /metrics       (Prometheus text exposition, with trace-ID exemplars)
//
// Concurrency model (DESIGN.md §8): reads never block on writes. All
// mutations funnel into a single-writer pipeline — requests enqueue onto a
// channel drained by a journal stage (which makes a whole group of queued
// batches durable under one fsync, "group commit") feeding an apply stage
// (the only goroutine that mutates the engine). The apply stage coalesces
// by default (DESIGN.md §9): compatible mutations queued behind the
// in-flight one merge into a single fused Engine.Apply, and a conflicting
// request (same edge or same node as the open batch) flushes the batch
// first, so per-request ack/error semantics are preserved. After each
// applied batch the engine publishes an immutable, epoch-stamped embedding
// snapshot via an atomic pointer; every read handler resolves against the
// current snapshot with zero locking and reports the snapshot epoch it
// observed. A successful mutation response implies the batch is durable,
// applied, and visible in the published snapshot (read-your-writes).
//
// Observability: every server owns an obs.Observer shared with its engine
// (per-update latency/size histograms, slow-update traces) and an
// obs.Registry exposing them — plus the work counters, per-condition visit
// totals, WAL commit latency, snapshot epoch/lag
// and group-commit batch sizes — at GET /metrics.
package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Server wraps an engine with HTTP handlers and the single-writer update
// pipeline. The engine is owned by the apply stage after New returns;
// nothing else may mutate it.
type Server struct {
	engine   *inkstream.Engine
	counters *metrics.Counters
	journal  Journal

	// Pipeline plumbing (pipeline.go).
	submitCh  chan *updateReq
	applyCh   chan []*updateReq
	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	updates   atomic.Int64  // successful mutation requests
	reads     atomic.Int64  // embedding reads resolved against a snapshot
	accepted  atomic.Uint64 // mutation batches accepted into the pipeline
	processed atomic.Uint64 // mutation batches reflected in (or rejected
	// before) the published snapshot; accepted-processed is the lag

	// Server-side coalescing state (coalesce.go): the switch, the graph's
	// directedness captured for edge canonicalisation, and the counters.
	coalesce    atomic.Bool
	undirected  bool
	coStalls    atomic.Int64 // fused batches flushed early by a conflict
	coFallbacks atomic.Int64 // fused applies replayed per-request

	obs    *obs.Observer
	reg    *obs.Registry
	walLat *obs.Histogram
	gcSize *obs.Histogram
	coSize *obs.Histogram

	// Flight recorder (flight.go): request-scoped pipeline traces, the
	// submit→ack latency histogram they exemplify, and the in-process
	// time-series sampler behind /v1/timeseries.
	flight  *obs.FlightRecorder
	ackLat  *obs.Histogram
	sampler *obs.Sampler
	alerts  *obs.AlertEngine
	started time.Time
	sloNS   atomic.Int64 // healthz ack-p99 SLO in ns (0 = disabled)

	// Runtime telemetry plane and incident black box (blackbox.go); the
	// runtime collector always exists, the black box only after
	// EnableBlackBox.
	runtime  *obs.Runtime
	blackbox *obs.BlackBox

	// Drift auditor (audit.go).
	audit      *auditState
	driftHists []obs.LabeledHistogram

	// Tiered row store observability (pagecache.go); nil in the default
	// resident configuration.
	pageStats    func() obs.PageCacheStats
	pageFaultLat *obs.Histogram
	pageQuant    string
}

// Journal records every applied batch before it reaches the engine
// (write-ahead logging); persist.WAL implements it. A journal failure
// fails the update before the engine sees it, so a successful response
// implies the batch is durable.
type Journal interface {
	Append(delta graph.Delta, vups []inkstream.VertexUpdate) error
}

// BatchJournal is the group-commit extension of Journal (implemented by
// persist.WAL): AppendBuffered stages records without durability and one
// Commit fsyncs them all. When the configured journal supports it, the
// pipeline's journal stage covers every request queued behind an fsync
// with that single fsync.
type BatchJournal interface {
	Journal
	AppendBuffered(delta graph.Delta, vups []inkstream.VertexUpdate) error
	Commit() error
}

// New wraps an engine; counters may be the same instance the engine
// records into (or nil). The server reuses the engine's observer when one
// was installed at construction (so CLI-configured tracing keeps working)
// and otherwise installs a fresh one, builds the /metrics registry,
// publishes the initial embedding snapshot (epoch 1), and starts the
// writer pipeline. Call Close to stop it.
//
// Configuration methods (SetJournal, EnableSlowUpdateLog)
// must be called before the first request is served.
func New(engine *inkstream.Engine, counters *metrics.Counters) *Server {
	s := &Server{engine: engine, counters: counters}
	s.obs = engine.Observer()
	if s.obs == nil {
		s.obs = obs.NewObserver()
		engine.SetObserver(s.obs)
	}
	s.walLat = obs.NewLatencyHistogram()
	s.gcSize = obs.NewSizeHistogram()
	s.coSize = obs.NewSizeHistogram()
	s.undirected = engine.Graph().Undirected
	s.coalesce.Store(true)
	s.started = time.Now()
	// Flight recorder defaults: last 256 interesting requests, 1 in 64
	// sampled. Reconfigure with SetTraceSampling before serving.
	s.flight = obs.NewFlightRecorder(256, 64)
	s.ackLat = obs.NewLatencyHistogram()
	s.ackLat.EnableExemplars()
	s.obs.UpdateLatency.EnableExemplars()
	s.audit = newAuditState()
	s.driftHists = driftHistograms(engine.Model())
	// In-process time-series: 1s resolution, 10-minute window. The alert
	// engine evaluates its burn-rate rules on every tick (alerts are
	// installed by SetHealthSLO).
	s.sampler = obs.NewSampler(time.Second, 600)
	s.alerts = obs.NewAlertEngine(s.sampler)
	s.runtime = obs.NewRuntime()
	s.reg = obs.NewRegistry()
	s.buildRegistry()
	// Epoch 1 reflects the bootstrapped state, so readers always have a
	// snapshot to resolve against.
	engine.PublishSnapshot()
	s.submitCh = make(chan *updateReq, 4*maxGroup)
	s.applyCh = make(chan []*updateReq, 1)
	s.quit = make(chan struct{})
	s.buildTimeseries()
	s.sampler.Start()
	s.start()
	return s
}

// Observer exposes the server's observer for CLI wiring (slow-update
// thresholds, trace emission).
func (s *Server) Observer() *obs.Observer { return s.obs }

// Registry exposes the metric registry, e.g. to register process-level
// extras before serving.
func (s *Server) Registry() *obs.Registry { return s.reg }

// EnableSlowUpdateLog logs a full per-layer trace for every update slower
// than threshold (and for every update when traceAll is set). logger nil
// means the standard logger. Call before serving.
func (s *Server) EnableSlowUpdateLog(threshold time.Duration, traceAll bool, logger *log.Logger) {
	if logger == nil {
		logger = log.Default()
	}
	s.obs.SlowThreshold = threshold
	s.obs.TraceAll = traceAll
	s.SetSlowTraceThreshold(threshold)
	s.obs.OnTrace = func(t *obs.Trace) {
		if threshold > 0 && t.Total >= threshold {
			logger.Printf("slow update (>= %v): %s", threshold, t)
			return
		}
		logger.Printf("%s", t)
	}
}

// buildRegistry registers every exposed family. Engine-derived values are
// sampled from the immutable published snapshot, so scraping never
// touches mutable engine state.
func (s *Server) buildRegistry() {
	r := s.reg
	snap := func() *inkstream.Snapshot { return s.engine.Snapshot() }
	r.CounterFunc("inkstream_updates_total",
		"Update batches applied by the engine (edge and vertex-feature).",
		func() float64 { return float64(s.obs.Updates()) })
	r.CounterFunc("inkstream_slow_updates_total",
		"Updates slower than the configured slow-update threshold.",
		func() float64 { return float64(s.obs.SlowUpdates()) })
	r.Histogram("inkstream_update_latency_seconds",
		"End-to-end latency of one applied update batch.",
		1e-9, s.obs.UpdateLatency)
	r.Histogram("inkstream_update_batch_size",
		"Edge changes plus vertex updates per applied batch.",
		1, s.obs.BatchSize)
	r.Histogram("inkstream_update_events",
		"Propagation events processed per applied batch.",
		1, s.obs.Events)
	r.LabeledCounterFunc("inkstream_node_visits_total",
		"Per-layer node visits by InkStream condition (paper Fig. 8 taxonomy).",
		func() []obs.LabeledValue {
			st := snap().Conditions
			counts := make(map[string]int64, len(st.Counts))
			for c := inkstream.CondPruned; c <= inkstream.CondSelfOnly; c++ {
				counts[c.String()] = st.Counts[c]
			}
			return obs.SortedLabeled("condition", counts)
		})
	r.GaugeFunc("inkstream_graph_nodes",
		"Nodes in the maintained graph (as of the published snapshot).",
		func() float64 { return float64(snap().Nodes) })
	r.GaugeFunc("inkstream_graph_edges",
		"Edges in the maintained graph (as of the published snapshot).",
		func() float64 { return float64(snap().Edges) })
	r.GaugeFunc("inkstream_snapshot_epoch",
		"Epoch of the currently published embedding snapshot.",
		func() float64 { return float64(snap().Epoch) })
	r.GaugeFunc("inkstream_snapshot_lag_batches",
		"Mutation batches accepted by the pipeline but not yet reflected in the published snapshot (reader staleness bound).",
		func() float64 {
			// Load processed first so a concurrent publish can only shrink
			// the reported lag, never make it negative.
			p := s.processed.Load()
			a := s.accepted.Load()
			if a < p {
				return 0
			}
			return float64(a - p)
		})
	r.CounterFunc("inkstream_reads_total",
		"Embedding reads resolved against a published snapshot (lock-free path).",
		func() float64 { return float64(s.reads.Load()) })
	r.Histogram("inkstream_group_commit_batch_size",
		"Journaled update batches covered by one WAL fsync (group commit).",
		1, s.gcSize)
	r.Histogram("inkstream_coalesced_batch_size",
		"Queued mutation requests fused into one engine apply (server-side coalescing).",
		1, s.coSize)
	r.CounterFunc("inkstream_coalesce_stalls_total",
		"Fused batches flushed early because a queued request conflicted (same edge or same node as the open batch).",
		func() float64 { return float64(s.coStalls.Load()) })
	r.CounterFunc("inkstream_coalesce_fallbacks_total",
		"Fused applies that failed validation and were replayed request-by-request.",
		func() float64 { return float64(s.coFallbacks.Load()) })
	r.CounterFunc("inkstream_http_updates_served_total",
		"Successful mutation requests (/v1/update, /v1/features).",
		func() float64 { return float64(s.updates.Load()) })
	if s.counters != nil {
		r.CounterFunc("inkstream_bytes_fetched_total",
			"Embedding/feature bytes read by inference (Table V memory cost).",
			func() float64 { return float64(s.counters.BytesFetched.Load()) })
		r.CounterFunc("inkstream_bytes_written_total",
			"Embedding bytes stored back by inference.",
			func() float64 { return float64(s.counters.BytesWritten.Load()) })
		r.CounterFunc("inkstream_flops_total",
			"Floating-point operations spent in inference.",
			func() float64 { return float64(s.counters.FLOPs.Load()) })
		r.CounterFunc("inkstream_events_processed_total",
			"InkStream propagation events consumed.",
			func() float64 { return float64(s.counters.EventsProcessed.Load()) })
	}
	r.Histogram("inkstream_wal_append_latency_seconds",
		"Durability cost per WAL commit: encode, write, flush and fsync (one commit may cover a whole group).",
		1e-9, s.walLat)
	r.Histogram("inkstream_ack_latency_seconds",
		"Submit-to-ack latency of one pipeline request (queueing + journal + coalesce + apply + publish); buckets carry trace-ID exemplars resolvable at /v1/traces.",
		1e-9, s.ackLat)
	r.CounterFunc("inkstream_traces_recorded_total",
		"Request traces recorded by the flight recorder (sampled, slow or failed requests).",
		func() float64 {
			if s.flight == nil {
				return 0
			}
			return float64(s.flight.Recorded())
		})
	r.CounterFunc("inkstream_drift_audits_total",
		"Shadow-recompute drift audits completed.",
		func() float64 { return float64(s.audit.audits.Load()) })
	r.CounterFunc("inkstream_drift_audit_failures_total",
		"Drift audits whose max abs drift exceeded the tolerance.",
		func() float64 { return float64(s.audit.failures.Load()) })
	r.GaugeFunc("inkstream_drift_max_abs",
		"Max abs difference between maintained and shadow-recomputed embeddings in the most recent drift audit.",
		s.lastDrift)
	r.HistogramVec("inkstream_drift_abs",
		"Per-audit max abs drift, labeled by the model's aggregator kind (accumulative kinds drift; monotonic kinds should sit in the lowest bucket).",
		1e-9, s.driftHists)
	s.alerts.Register(r)
	s.runtime.Register(r)
}

// SetCoalescing switches server-side update coalescing (coalesce.go) on or
// off. On by default; safe to call at any time (the apply stage reads the
// switch per group), which lets benchmarks compare the two modes on one
// server.
func (s *Server) SetCoalescing(on bool) { s.coalesce.Store(on) }

// CoalesceStats summarises the coalescing activity so far.
type CoalesceStats struct {
	// Requests is the number of mutation requests that went through the
	// coalescing apply stage; Batches the number of Engine.Apply flushes
	// covering them — Requests/Batches is the achieved fusion factor.
	Requests int64 `json:"requests"`
	Batches  int64 `json:"batches"`
	// Stalls counts fused batches flushed early by a conflicting request;
	// Fallbacks counts fused applies replayed per-request after a
	// validation failure.
	Stalls    int64 `json:"stalls"`
	Fallbacks int64 `json:"fallbacks"`
}

// CoalesceStats returns the coalescing counters. Safe from any goroutine.
func (s *Server) CoalesceStats() CoalesceStats {
	h := s.coSize.Snapshot()
	return CoalesceStats{
		Requests:  h.Sum,
		Batches:   h.Count,
		Stalls:    s.coStalls.Load(),
		Fallbacks: s.coFallbacks.Load(),
	}
}

// SetJournal installs a write-ahead journal; call before serving. Journals
// that can observe their commit latency (persist.WAL) are handed the
// registered WAL histogram. Journals implementing BatchJournal get group
// commit: one fsync covers every request queued behind it.
func (s *Server) SetJournal(j Journal) {
	s.journal = j
	if h, ok := j.(interface{ SetLatencyHistogram(*obs.Histogram) }); ok {
		h.SetLatencyHistogram(s.walLat)
	}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	mux.HandleFunc("POST /v1/features", s.handleFeatures)
	mux.HandleFunc("GET /v1/embedding", s.handleEmbedding)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/timeseries", s.handleTimeseries)
	mux.Handle("GET /v1/alerts", s.alerts)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /debug/bundle", s.handleBundle)
	// Unknown /v1/* paths get a typed JSON 404 instead of the mux's plain
	// text (known paths with the wrong method also land here; the body
	// names the path so either mistake is diagnosable).
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "no %s %s endpoint", r.Method, r.URL.Path)
	})
	return mux
}

// VerifyResponse is the body of POST /v1/verify (both outcomes).
type VerifyResponse struct {
	// Status is "verified" or "failed"; Error the failure detail.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// MaxAbsDiff is the measured max abs difference between the maintained
	// embeddings and the from-scratch recompute — reported even on success,
	// so operators see how close to the tolerance the state is drifting.
	MaxAbsDiff float64 `json:"max_abs_diff"`
	// ElapsedMS is the recompute+compare time on the apply stage; LatencyMS
	// the full request latency including the wait to quiesce the pipeline.
	ElapsedMS float64 `json:"elapsed_ms"`
	LatencyMS float64 `json:"latency_ms"`
}

// handleVerify recomputes the full inference and compares it against the
// maintained state (Engine.VerifyDiff) — an operational self-check, and the
// exhaustive sibling of the sampled drift auditor. It runs as an exclusive
// operation on the apply stage (the pipeline is quiesced for the whole
// recompute), so it never races an update; use the drift auditor for a
// continuous check that does not stall serving. It is a POST because it is
// expensive.
func (s *Server) handleVerify(w http.ResponseWriter, _ *http.Request) {
	var diff float32
	var elapsed time.Duration
	t0 := time.Now()
	err := s.do(nil, nil, func() error {
		v0 := time.Now()
		var verr error
		diff, verr = s.engine.VerifyDiff(2e-3)
		elapsed = time.Since(v0)
		return verr
	})
	lat := time.Since(t0)
	if err == ErrServerClosed {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := VerifyResponse{
		Status:     "verified",
		MaxAbsDiff: float64(diff),
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		LatencyMS:  float64(lat.Microseconds()) / 1000,
	}
	if err != nil {
		resp.Status = "failed"
		resp.Error = fmt.Sprintf("verification failed: %v", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// EdgeChangeJSON is one edge modification in the wire format.
type EdgeChangeJSON struct {
	U      int32 `json:"u"`
	V      int32 `json:"v"`
	Insert bool  `json:"insert"`
}

// UpdateRequest is the body of POST /v1/update.
type UpdateRequest struct {
	Changes []EdgeChangeJSON `json:"changes"`
}

// UpdateResponse reports the applied batch. Epoch is a published snapshot
// epoch that covers the batch: any read observing this epoch (or later)
// sees the update.
type UpdateResponse struct {
	Applied   int     `json:"applied"`
	Epoch     uint64  `json:"epoch"`
	LatencyMS float64 `json:"latency_ms"`
}

// mutationStatus maps a pipeline error to an HTTP status.
func mutationStatus(err error) int {
	if err == ErrServerClosed {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Changes) == 0 {
		httpError(w, http.StatusBadRequest, "empty change batch")
		return
	}
	delta := make(graph.Delta, len(req.Changes))
	for i, c := range req.Changes {
		delta[i] = graph.EdgeChange{U: c.U, V: c.V, Insert: c.Insert}
	}
	t0 := time.Now()
	err := s.Apply(delta, nil)
	lat := time.Since(t0)
	if err != nil {
		httpError(w, mutationStatus(err), "applying batch: %v", err)
		return
	}
	writeJSON(w, UpdateResponse{
		Applied:   len(delta),
		Epoch:     s.engine.Snapshot().Epoch,
		LatencyMS: float64(lat.Microseconds()) / 1000,
	})
}

// FeatureUpdateJSON is one vertex-feature replacement in the wire format.
type FeatureUpdateJSON struct {
	Node int32     `json:"node"`
	X    []float32 `json:"x"`
}

// FeaturesRequest is the body of POST /v1/features.
type FeaturesRequest struct {
	Updates []FeatureUpdateJSON `json:"updates"`
}

func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	var req FeaturesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Updates) == 0 {
		httpError(w, http.StatusBadRequest, "empty feature batch")
		return
	}
	ups := make([]inkstream.VertexUpdate, len(req.Updates))
	for i, u := range req.Updates {
		ups[i] = inkstream.VertexUpdate{Node: u.Node, X: tensor.Vector(u.X)}
	}
	t0 := time.Now()
	err := s.Apply(nil, ups)
	lat := time.Since(t0)
	if err != nil {
		httpError(w, mutationStatus(err), "applying features: %v", err)
		return
	}
	writeJSON(w, UpdateResponse{
		Applied:   len(ups),
		Epoch:     s.engine.Snapshot().Epoch,
		LatencyMS: float64(lat.Microseconds()) / 1000,
	})
}

// EmbeddingResponse is the body of GET /v1/embedding. Epoch is the
// snapshot epoch the embedding was resolved against — the staleness bound
// the reader observed.
type EmbeddingResponse struct {
	Node      int32     `json:"node"`
	Epoch     uint64    `json:"epoch"`
	Embedding []float32 `json:"embedding"`
}

// handleEmbedding serves one node's embedding from the published snapshot
// with zero locking: a read is an atomic pointer load plus a row lookup,
// regardless of what the writer pipeline is doing.
func (s *Server) handleEmbedding(w http.ResponseWriter, r *http.Request) {
	nodeStr := r.URL.Query().Get("node")
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad node %q", nodeStr)
		return
	}
	row, epoch, ok := s.ReadEmbedding(node)
	if !ok {
		httpError(w, http.StatusNotFound, "node %d out of range", node)
		return
	}
	writeJSON(w, EmbeddingResponse{Node: int32(node), Epoch: epoch, Embedding: row})
}

// LatencyQuantiles summarises the update-latency histogram, in
// milliseconds.
type LatencyQuantiles struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Epoch is the published snapshot epoch the stats were read from;
	// SnapshotLag the number of accepted batches it does not yet cover.
	Epoch         uint64 `json:"epoch"`
	SnapshotLag   uint64 `json:"snapshot_lag"`
	UpdatesServed int64  `json:"updates_served"`
	ReadsServed   int64  `json:"reads_served"`
	SlowUpdates   int64  `json:"slow_updates"`
	// Coalesce summarises server-side update coalescing: requests fused,
	// engine flushes covering them, conflict stalls and replay fallbacks.
	Coalesce      CoalesceStats    `json:"coalesce"`
	Conditions    map[string]int64 `json:"conditions"`
	BytesFetched  int64            `json:"bytes_fetched"`
	Events        int64            `json:"events_processed"`
	UpdateLatency LatencyQuantiles `json:"update_latency"`
	// PageCache describes the tiered row store; nil in resident mode.
	PageCache *PageCacheSection `json:"page_cache,omitempty"`
}

// handleStats reads everything from the published snapshot, atomics and
// the observer — never from mutable engine state — so it stays lock-free.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.engine.Snapshot()
	resp := StatsResponse{
		Nodes:         snap.Nodes,
		Edges:         snap.Edges,
		Epoch:         snap.Epoch,
		UpdatesServed: s.updates.Load(),
		ReadsServed:   s.reads.Load(),
		Conditions:    map[string]int64{},
	}
	if p, a := s.processed.Load(), s.accepted.Load(); a > p {
		resp.SnapshotLag = a - p
	}
	resp.Coalesce = s.CoalesceStats()
	for c := inkstream.CondPruned; c <= inkstream.CondSelfOnly; c++ {
		if n := snap.Conditions.Counts[c]; n > 0 {
			resp.Conditions[c.String()] = n
		}
	}
	if s.counters != nil {
		cs := s.counters.Snapshot()
		resp.BytesFetched = cs.BytesFetched
		resp.Events = cs.EventsProcessed
	}
	resp.SlowUpdates = s.obs.SlowUpdates()
	lat := s.obs.UpdateLatency.Snapshot()
	const ms = 1e-6 // nanoseconds → milliseconds
	resp.UpdateLatency = LatencyQuantiles{
		P50: float64(lat.P50()) * ms,
		P95: float64(lat.P95()) * ms,
		P99: float64(lat.P99()) * ms,
		Max: float64(lat.Max) * ms,
	}
	if s.pageStats != nil {
		sec := &PageCacheSection{PageCacheStats: s.pageStats(), Quant: s.pageQuant}
		sec.HitRate = sec.PageCacheStats.HitRate()
		if s.pageFaultLat != nil {
			sec.FaultP99Ms = float64(s.pageFaultLat.Snapshot().P99()) * ms
		}
		resp.PageCache = sec
	}
	writeJSON(w, resp)
}

// SetHealthSLO sets the ack-latency p99 objective the health check enforces:
// when the windowed p99 (max over the last ~10 time-series ticks) exceeds
// slo, /healthz reports degraded. It also installs the standard fast/slow
// burn-rate alert pair over the windowed ack p99 series (GET /v1/alerts);
// firing alerts degrade /healthz too. 0 disables both (the default).
func (s *Server) SetHealthSLO(slo time.Duration) {
	s.sloNS.Store(slo.Nanoseconds())
	if s.alerts == nil {
		return
	}
	if slo <= 0 {
		s.alerts.SetRules()
		return
	}
	s.alerts.SetRules(obs.DefaultBurnRateRules("ack_p99_ms", float64(slo)/1e6)...)
}

// Alerts exposes the burn-rate alert engine.
func (s *Server) Alerts() *obs.AlertEngine { return s.alerts }

// HealthzResponse is the body of GET /healthz (and /v1/healthz).
type HealthzResponse struct {
	// Status is "ok" or "degraded". The response is always HTTP 200 —
	// degraded means "serving but out of spec" (drift audit failing, ack
	// p99 over SLO), which is an alerting condition, not an unreachability
	// one; Reasons lists what degraded it.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Shards and EpochSkew are populated by the shard router, which serves
	// this same schema for deployment-shape parity (1 for a single engine).
	Shards        int     `json:"shards,omitempty"`
	Epoch         uint64  `json:"epoch"`
	EpochSkew     uint64  `json:"epoch_skew,omitempty"`
	AckP99MS      float64 `json:"ack_p99_ms"`
	SLOMS         float64 `json:"slo_ms,omitempty"`
	DriftMaxAbs   float64 `json:"drift_max_abs"`
	AuditFailures int64   `json:"audit_failures"`
	// AlertsFiring names the burn-rate alerts currently firing; their
	// human-readable reasons are folded into Reasons.
	AlertsFiring []string `json:"alerts_firing,omitempty"`
	Reasons      []string `json:"reasons,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Epoch:         s.engine.Snapshot().Epoch,
		DriftMaxAbs:   s.lastDrift(),
		AuditFailures: s.audit.failures.Load(),
	}
	var reasons []string
	if s.sampler != nil {
		// Max over the last ~10 ticks so one quiet second cannot mask a
		// breached SLO between scrapes.
		if v, ok := s.sampler.MaxRecent("ack_p99_ms", 10); ok {
			resp.AckP99MS = v
		}
	}
	if slo := time.Duration(s.sloNS.Load()); slo > 0 {
		resp.SLOMS = float64(slo) / 1e6
		if resp.AckP99MS > resp.SLOMS {
			reasons = append(reasons, fmt.Sprintf(
				"ack p99 %.3fms over SLO %.3fms", resp.AckP99MS, resp.SLOMS))
		}
	}
	if s.audit.lastFailed.Load() {
		reasons = append(reasons, fmt.Sprintf(
			"drift audit failing: max abs drift %g over tolerance %g",
			resp.DriftMaxAbs, s.audit.tol))
	}
	if s.alerts != nil {
		resp.AlertsFiring = s.alerts.Firing()
		reasons = append(reasons, s.alerts.FiringReasons()...)
	}
	if len(reasons) > 0 {
		resp.Status = "degraded"
		resp.Reasons = reasons
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will just break.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
