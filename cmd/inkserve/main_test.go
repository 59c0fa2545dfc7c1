package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

func get(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestBuildServerFromDataset(t *testing.T) {
	h, addr, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-addr", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":0" {
		t.Errorf("addr = %q", addr)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code := get(t, ts, "/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz status %d", code)
	}
	if code := get(t, ts, "/v1/embedding?node=1"); code != http.StatusOK {
		t.Errorf("embedding status %d", code)
	}
}

func TestBuildServerBundleRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.inkb")
	// Bootstrap + persist.
	if _, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-save-bundle", path}); err != nil {
		t.Fatal(err)
	}
	// Resume.
	h, _, err := buildServer([]string{"-bundle", path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code := get(t, ts, "/v1/stats"); code != http.StatusOK {
		t.Errorf("stats status %d", code)
	}
}

// Crash-recovery workflow: serve with -save-bundle and -wal, apply updates
// over HTTP, then rebuild from -bundle + -wal; the journaled updates must
// survive into the recovered service.
func TestBuildServerWALRecovery(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "engine.inkb")
	wal := filepath.Join(dir, "updates.wal")

	h, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-save-bundle", bundle, "-wal", wal})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	// Insert an edge between two low-degree nodes via the API.
	resp, err := http.Post(ts.URL+"/v1/update", "application/json",
		strings.NewReader(`{"changes":[{"u":300,"v":301,"insert":true},{"u":302,"v":303,"insert":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, body)
	}
	edgesBefore := statsEdges(t, ts.URL)
	ts.Close() // "crash"

	// Recover.
	h2, _, err := buildServer([]string{"-bundle", bundle, "-wal", wal})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	// The journaled edges survived into the recovered service.
	if got := statsEdges(t, ts2.URL); got != edgesBefore {
		t.Fatalf("recovered edges = %d, want %d", got, edgesBefore)
	}
	vresp, err := http.Post(ts2.URL+"/v1/verify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("recovered engine failed verify: %s", vbody)
	}
}

func statsEdges(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Edges int `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Edges
}

// Observability flags: /metrics is always mounted; -pprof adds the
// profiler endpoints.
func TestBuildServerObservability(t *testing.T) {
	h, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32",
		"-pprof", "-slow-update", "1h", "-trace-updates"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code := get(t, ts, "/metrics"); code != http.StatusOK {
		t.Errorf("metrics status %d", code)
	}
	if code := get(t, ts, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index status %d", code)
	}
	if code := get(t, ts, "/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz status %d (pprof mux must keep API routes)", code)
	}

	// Without -pprof the profiler stays unmounted.
	h2, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	if code := get(t, ts2, "/debug/pprof/"); code == http.StatusOK {
		t.Error("pprof mounted without -pprof")
	}
}

func TestBuildServerErrors(t *testing.T) {
	cases := [][]string{
		{},                                 // no source
		{"-dataset", "nope"},               // unknown dataset
		{"-dataset", "PM", "-model", "x"},  // unknown model
		{"-dataset", "PM", "-agg", "medi"}, // unknown aggregation
		{"-bundle", "/does/not/exist"},     // missing bundle
		{"-file", "/does/not/exist"},       // missing snapshot
	}
	for i, args := range cases {
		if _, _, err := buildServer(args); err == nil {
			t.Errorf("case %d: accepted %v", i, args)
		}
	}
}

// Sharded serving: single-engine flags fail fast (not log-and-ignore), and
// -slo / -trace-ring / -trace-sample carry over to the router, giving the
// sharded deployment the same serving surface (/v1/rounds included).
func TestBuildServerSharded(t *testing.T) {
	for i, args := range [][]string{
		{"-dataset", "PM", "-scale", "32", "-shards", "2", "-slow-update", "1ms"},
		{"-dataset", "PM", "-scale", "32", "-shards", "2", "-trace-updates"},
		{"-dataset", "PM", "-scale", "32", "-shards", "2", "-audit-every", "16"},
		{"-dataset", "PM", "-scale", "32", "-shards", "2", "-audit-tol", "0.1"},
	} {
		if _, _, err := buildServer(args); err == nil {
			t.Errorf("case %d: accepted single-engine flag with -shards: %v", i, args)
		}
	}

	h, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32",
		"-shards", "2", "-slo", "1h", "-trace-ring", "128", "-trace-sample", "1"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, path := range []string{
		"/v1/healthz", "/v1/stats", "/v1/rounds", "/v1/traces",
		"/v1/timeseries", "/v1/alerts", "/metrics",
	} {
		if code := get(t, ts, path); code != http.StatusOK {
			t.Errorf("%s status %d", path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Shards int     `json:"shards"`
		SLOMS  float64 `json:"slo_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Shards != 2 || hz.SLOMS != 3600000 {
		t.Errorf("sharded healthz: %+v", hz)
	}
	if code := get(t, ts, "/v1/nonsense"); code != http.StatusNotFound {
		t.Errorf("unknown /v1 path status %d, want 404", code)
	}
}
