package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

var inputsCache = map[string]*inputs{}

func testInputs(t *testing.T, w workload) *inputs {
	t.Helper()
	if in, ok := inputsCache[w.name]; ok {
		return in
	}
	in, err := buildInputs(w)
	if err != nil {
		t.Fatal(err)
	}
	inputsCache[w.name] = in
	return in
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		in := testInputs(t, w)
		a, err := genStreams(w, in.g, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genStreams(w, in.g, 7)
		c, _ := genStreams(w, in.g, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same streams", w.name)
		}
		if len(a.writers) != w.writers || len(a.readers) != w.readers {
			t.Errorf("%s: %d writers / %d readers, want %d / %d", w.name, len(a.writers), len(a.readers), w.writers, w.readers)
		}
		for i, s := range a.writers {
			if want := toggleCycles * 2 * w.poolSize / w.batch; len(s.ups) != want {
				t.Errorf("%s writer %d: %d requests per stream, want %d", w.name, i, len(s.ups), want)
			}
			for _, u := range s.ups {
				var req struct {
					Changes []struct {
						U, V   int32
						Insert bool
					}
				}
				if err := json.Unmarshal(u.body, &req); err != nil || len(req.Changes) != len(u.delta) {
					t.Fatalf("%s writer %d: body %s does not encode its delta", w.name, i, u.body)
				}
				for k, c := range req.Changes {
					if d := u.delta[k]; d.U != c.U || d.V != c.V || d.Insert != c.Insert {
						t.Fatalf("%s writer %d: body change %d is %+v, delta has %v", w.name, i, k, c, d)
					}
				}
			}
		}
	}
}

// Every request must be valid under any interleaving of the connections:
// replay several full toggle cycles in random interleavings and apply each
// request to the graph as the engine would.
func TestStreamsValidUnderAnyInterleaving(t *testing.T) {
	for _, w := range workloads {
		in := testInputs(t, w)
		st, err := genStreams(w, in.g, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]graph.NodeID]int{}
		for i, s := range st.writers {
			for _, u := range s.ups[:w.poolSize/w.batch] { // the first insert sweep covers the pool once
				for _, c := range u.delta {
					k := [2]graph.NodeID{min(c.U, c.V), max(c.U, c.V)}
					if prev, dup := seen[k]; dup {
						t.Fatalf("%s: edge %v in pools of writers %d and %d", w.name, k, prev, i)
					}
					seen[k] = i
				}
			}
		}
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			g := in.g.Clone()
			next := make([]int, len(st.writers))
			total := 0
			for _, s := range st.writers {
				total += 2 * len(s.ups)
			}
			for n := 0; n < total; n++ {
				i := rng.Intn(len(st.writers))
				s := st.writers[i]
				d := s.ups[next[i]%len(s.ups)].delta
				if err := d.Validate(g); err != nil {
					t.Fatalf("%s trial %d writer %d request %d: %v", w.name, trial, i, next[i], err)
				}
				if err := d.Apply(g); err != nil {
					t.Fatal(err)
				}
				next[i]++
			}
		}
	}
}

func TestGateComparatorRejectsPerturbedRow(t *testing.T) {
	want := []float32{0.5, -1.25, 3, 0}
	got := append([]float32(nil), want...)
	if _, ok := compareRow(got, want, true, 0); !ok {
		t.Fatal("identical rows rejected")
	}
	ulp := append([]float32(nil), want...)
	ulp[2] = math.Nextafter32(ulp[2], 4)
	if _, ok := compareRow(ulp, want, true, 0); ok {
		t.Error("exact comparison accepted a row one ulp off")
	}
	if _, ok := compareRow(ulp, want, false, gateTol); !ok {
		t.Error("tolerant comparison rejected a row one ulp off")
	}
	far := append([]float32(nil), want...)
	far[1] += 0.01
	if d, ok := compareRow(far, want, false, gateTol); ok || math.Abs(d-0.01) > 1e-6 {
		t.Errorf("tolerant comparison of a row 0.01 off: diff %g ok %v", d, ok)
	}
	nan := append([]float32(nil), want...)
	nan[0] = float32(math.NaN())
	if _, ok := compareRow(nan, want, false, gateTol); ok {
		t.Error("NaN accepted")
	}
	if _, ok := compareRow(want[:3], want, false, gateTol); ok {
		t.Error("short row accepted")
	}
	negZero := append([]float32(nil), want...)
	negZero[3] = float32(math.Copysign(0, -1))
	if _, ok := compareRow(negZero, want, true, 0); ok {
		t.Error("exact comparison accepted -0 for +0")
	}
}

// The latency histogram's quantiles are within a bucket width (0.1%) of
// the exact nearest-rank quantile, on both sides of the exact range.
func TestHistQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	var xs []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 300e3)
		xs = append(xs, v)
		h.add(v)
	}
	for _, q := range []float64{0.001, 0.5, 0.9, 0.99, 1} {
		got, want := h.quantile(q), percentile(xs, q)
		if math.Abs(got-want) > max(0.5, want*1e-3) {
			t.Errorf("q=%g: histogram %g, exact %g", q, got, want)
		}
	}
	if e := newHist(); e.quantile(0.5) != 0 {
		t.Error("empty histogram has a non-zero median")
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), benchmark %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("file has %d/%d metrics, benchmark %d/%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		f := bf.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better || f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("end_to_end %d: file %+v, benchmark %+v", i, f, m)
		}
	}
	for i, m := range perLayer {
		f := bf.PerLayer[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
			t.Errorf("per_layer %d: file %+v, benchmark %+v", i, f, m)
		}
		if m.moves == "" || len(m.layers) == 0 {
			t.Errorf("per_layer %s: no end-to-end mapping or workloads", m.name)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "httpbench" || strings.Join(bf.Command, " ") != "bash httpbench/run.sh" {
		t.Errorf("command %q / paths %q do not run this package", bf.Command, bf.Paths)
	}
}

// A short run of each workload, untraced and traced, prints every metric
// BENCHMARK.json names, with its unit, on a correct run.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every deployment")
	}
	bf := readBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}} // trace flag → metric → unit
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	// Layer metrics that may legitimately read 0 in a sub-second run.
	mayBeZero := map[string]bool{"server.stalls": true, "trace.overhead_frac": true,
		"runtime.gc_cpu_frac": true, "runtime.gc_pause_p99_us": true}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "0.5", "--trace", trace,
				"--work", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int64                  `json:"attempted"`
				Failed    int64                  `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				v, ok := res.Metrics[name]
				if !ok || v.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w.name, trace, name, v, unit)
				}
			}
			if trace == "0" {
				for name := range want[trace] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			for _, m := range perLayer {
				exercised := slices.Contains(m.layers, w.name) && !mayBeZero[m.name] &&
					!strings.HasPrefix(m.name, "inkstream.cond.")
				if exercised && res.Metrics[m.name].Value == 0 {
					t.Errorf("%s: exercised layer metric %s reads 0", w.name, m.name)
				}
			}
		}
	}
}
