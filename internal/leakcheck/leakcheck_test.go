package leakcheck

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestOwnedGoroutinesDetectsLeak: a goroutine parked inside a repro
// function is reported; after it exits the report is clean.
func TestOwnedGoroutinesDetectsLeak(t *testing.T) {
	ready := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go leakyWorker(ready, release, done)
	<-ready // the goroutine is inside leakyWorker (a repro/ frame) now
	deadline := time.Now().Add(2 * time.Second)
	for {
		if gs := ownedGoroutines(); len(gs) > 0 {
			if !strings.Contains(strings.Join(gs, ""), "leakyWorker") {
				t.Fatalf("leak report misses leakyWorker:\n%s", strings.Join(gs, "\n\n"))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked repro goroutine never reported")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	deadline = time.Now().Add(2 * time.Second)
	for len(ownedGoroutines()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("report still dirty after worker exit:\n%s",
				strings.Join(ownedGoroutines(), "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

//go:noinline
func leakyWorker(ready, release, done chan struct{}) {
	close(ready)
	<-release
	close(done)
}

// TestTensorPoolIgnored: the tensor worker pool lives for the whole process
// and is not a leak, on any core count. Starting it at Parallelism 2 (so a
// region fans out even on one core) must leave the report clean, while a
// parked repro goroutine beside it is still reported.
func TestTensorPoolIgnored(t *testing.T) {
	defer func(p int) { tensor.Parallelism = p }(tensor.Parallelism)
	tensor.Parallelism = 2
	var ran atomic.Int64
	tensor.ParallelForGrain(4*tensor.MinChunkWork, 1, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	if ran.Load() != int64(4*tensor.MinChunkWork) {
		t.Fatalf("parallel region covered %d indices", ran.Load())
	}
	if !strings.Contains(allStacks(), "repro/internal/tensor.poolWorker") {
		t.Fatal("tensor pool not running; the test would prove nothing")
	}
	if gs := ownedGoroutines(); len(gs) > 0 {
		t.Fatalf("tensor pool reported as leaked:\n%s", strings.Join(gs, "\n\n"))
	}

	ready := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go leakyWorker(ready, release, done)
	<-ready
	gs := ownedGoroutines()
	if len(gs) != 1 || !strings.Contains(gs[0], "leakyWorker") {
		t.Errorf("want exactly leakyWorker reported beside the pool, got:\n%s", strings.Join(gs, "\n\n"))
	}
	close(release)
	<-done
}

// allStacks returns the full goroutine dump.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
