package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/gnn"
)

// gateTol is the tolerance /v1/verify applies to accumulative aggregators;
// monotonic ones must match bit for bit.
const gateTol = 2e-3

// compareRow returns the largest absolute difference between a served row
// and the reference row, and whether the row passes: bit-identical when
// exact, within tol otherwise. A length mismatch or a NaN never passes.
func compareRow(got, want []float32, exact bool, tol float64) (float64, bool) {
	if len(got) != len(want) {
		return math.Inf(1), false
	}
	var worst float64
	ok := true
	for i := range got {
		if exact && math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			ok = false
		}
		d := math.Abs(float64(got[i]) - float64(want[i]))
		if math.IsNaN(d) {
			return math.Inf(1), false
		}
		worst = max(worst, d)
	}
	if !exact && worst > tol {
		ok = false
	}
	return worst, ok
}

// gateResult is the end-of-run correctness check.
type gateResult struct {
	nodes   int
	maxDiff float64
	err     error
}

// gate compares every embedding the deployment at addr serves over HTTP
// against gnn.Infer on the final graph the benchmark tracked, over conns
// connections.
func gate(addr string, want *gnn.State, exact bool, conns int) gateResult {
	ref := want.Output()
	res := gateResult{nodes: ref.Rows}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var worst float64
			cn, err := dial(addr)
			if err == nil {
				defer cn.close()
			}
			for node := c; node < ref.Rows && err == nil; node += conns {
				row, gerr := cn.embedding(node)
				if gerr != nil {
					err = fmt.Errorf("gate read of node %d: %w", node, gerr)
					break
				}
				d, ok := compareRow(row, ref.Row(node), exact, gateTol)
				worst = max(worst, d)
				if !ok {
					err = fmt.Errorf("node %d served embedding differs from full recompute (max abs diff %g, exact=%v)", node, d, exact)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.maxDiff = max(res.maxDiff, worst)
			if res.err == nil {
				res.err = err
			}
		}(c)
	}
	wg.Wait()
	return res
}
