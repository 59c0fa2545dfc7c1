package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// conn is one client connection speaking HTTP/1.1 keep-alive from the
// calling goroutine alone: requests are pre-serialised bytes written in
// one call, and responses are parsed with net/http's reader. Unlike
// http.Client it starts no goroutines of its own, so a request costs the
// client a write, a read and no cross-goroutine hand-off.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte // scratch for requests built per call
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c)}, nil
}

func (c *conn) close() error { return c.c.Close() }

// do sends one serialised request and reads the response; the body is
// returned only when keep is set, and any status but 200 is an error.
func (c *conn) do(req []byte, keep bool) ([]byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the error
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	if keep {
		return io.ReadAll(resp.Body)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return nil, err
}

// updateRequest serialises POST /v1/update with body; seq, when non-zero,
// rides along for the traced run's handler middleware.
func updateRequest(dst, body []byte, seq uint64) []byte {
	dst = append(dst, "POST /v1/update HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = appendSeq(append(dst, "\r\n"...), seq)
	return append(append(dst, "\r\n"...), body...)
}

// getRequest serialises a GET of path plus a decimal argument.
func getRequest(dst []byte, path string, arg int, seq uint64) []byte {
	dst = append(dst, "GET "...)
	dst = strconv.AppendInt(append(dst, path...), int64(arg), 10)
	dst = appendSeq(append(dst, " HTTP/1.1\r\nHost: bench\r\n"...), seq)
	return append(dst, "\r\n"...)
}

// seqHeader carries the traced run's request sequence number to the
// handler middleware.
const seqHeader = "X-Bench-Seq"

func appendSeq(dst []byte, seq uint64) []byte {
	if seq == 0 {
		return dst
	}
	dst = strconv.AppendUint(append(dst, seqHeader+": "...), seq, 10)
	return append(dst, "\r\n"...)
}

// embedding reads one node's served embedding (the correctness gate).
func (c *conn) embedding(node int) ([]float32, error) {
	c.req = getRequest(c.req[:0], "/v1/embedding?node=", node, 0)
	body, err := c.do(c.req, true)
	if err != nil {
		return nil, err
	}
	var resp server.EmbeddingResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Embedding, nil
}

// ack is one acknowledged write of a traced pass: its ack time since the
// pass's epoch, its writer and its index in that writer's stream.
type ack struct {
	at          time.Duration
	writer, idx int
}

// passResult is what one closed-loop pass measured. The histograms and
// the per-second counts cover only requests started inside the window;
// acked and ackLog cover the whole pass, warm-up included. ackLog is kept
// by the traced pass alone, for the engine replay to follow ack order.
type passResult struct {
	windowStart     time.Time
	elapsed         time.Duration // window start → last completion inside it
	ackLat, readLat *hist
	changes         int64   // edge changes acknowledged in the window
	changesBySecond []int64 // the same, per second of the window
	acked           []int   // per writer: requests acknowledged over the whole pass
	ackLog          []ack
	attempted       int64
	failed          int64
	err             error // first failure, if any
	rt              runtimeWindow
}

// workerResult is one connection's share of a pass, merged after the
// workers have stopped. Its storage is allocated before the pass starts
// and, outside the traced pass, does not grow with the number of requests:
// the client's memory is then the same however fast the program serves,
// and peak_heap_mb does not move with throughput.
type workerResult struct {
	ackLat, readLat   *hist
	changesBySecond   []int64
	acked             int
	ackLog            []ack // traced pass only
	changes           int64
	attempted, failed int64
	err               error
	lastEnd           time.Time
}

// pass drives one deployment with every connection of a workload: a
// closed loop per connection (next request only after the previous reply)
// for warmup, then for the measured window.
type pass struct {
	w     workload
	st    *streams
	tr    *tracer
	epoch time.Time
	start time.Time // window start (end of warm-up)
	end   time.Time
}

// runPass opens one connection per writer and reader and drives them;
// atStart, when non-nil, runs as the window opens (the traced run
// snapshots the program's counters there).
func runPass(w workload, st *streams, d *deployment, tr *tracer, warmup, window time.Duration, atStart func()) (*passResult, error) {
	conns := make([]*conn, len(st.writers)+len(st.readers))
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	}()
	for i := range conns {
		var err error
		if conns[i], err = dial(d.addr); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	p := &pass{w: w, st: st, tr: tr, epoch: now}
	if tr != nil {
		p.epoch = tr.epoch
	}
	p.start = now.Add(warmup)
	p.end = p.start.Add(window)

	stop := make(chan struct{})
	rtDone := make(chan runtimeWindow, 1)
	go func() { rtDone <- sampleRuntime(p.start, stop, atStart) }()

	seconds := int(window/time.Second) + 1
	results := make([]workerResult, len(conns))
	for i := range results {
		results[i] = workerResult{ackLat: newHist(), readLat: newHist(), changesBySecond: make([]int64, seconds)}
	}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i < len(st.writers) {
				p.writer(i, conns[i], &results[i])
			} else {
				p.reader(st.readers[i-len(st.writers)], conns[i], &results[i])
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	rt := <-rtDone // before merging, so the merge's allocations stay out of the window's figures

	res := &passResult{
		windowStart: p.start, ackLat: newHist(), readLat: newHist(),
		changesBySecond: make([]int64, seconds), acked: make([]int, len(st.writers)), rt: rt,
	}
	last := p.start
	for i := range results {
		r := &results[i]
		res.ackLat.merge(r.ackLat)
		res.readLat.merge(r.readLat)
		for s, n := range r.changesBySecond {
			res.changesBySecond[s] += n
		}
		res.ackLog = append(res.ackLog, r.ackLog...)
		res.changes += r.changes
		res.attempted += r.attempted
		res.failed += r.failed
		if res.err == nil {
			res.err = r.err
		}
		if r.lastEnd.After(last) {
			last = r.lastEnd
		}
		if i < len(st.writers) {
			res.acked[i] = r.acked
		}
	}
	res.elapsed = last.Sub(p.start)
	return res, nil
}

// writer runs writer i's stream until the window closes. A failed request
// stops the connection: its pool's state is then unknown, and the run
// reports failure anyway.
func (p *pass) writer(i int, c *conn, r *workerResult) {
	s := p.st.writers[i]
	for k := 0; ; k++ {
		t0 := time.Now()
		if !t0.Before(p.end) {
			return
		}
		u := &s.ups[k%len(s.ups)]
		req := u.req
		var seq uint64
		if p.tr != nil {
			seq = p.tr.begin(kindWrite, u.key, t0)
			c.req = updateRequest(c.req[:0], u.body, seq)
			req = c.req
		}
		r.attempted++
		_, err := c.do(req, false)
		t1 := time.Now()
		if err != nil {
			r.failed++
			r.err = fmt.Errorf("writer %d request %d: %w", i, k, err)
			return
		}
		r.acked++
		if p.tr != nil {
			p.tr.finish(seq, t1)
			r.ackLog = append(r.ackLog, ack{at: t1.Sub(p.epoch), writer: i, idx: k})
		}
		if !t0.Before(p.start) {
			r.ackLat.add(int64(t1.Sub(t0)))
			r.changes += int64(len(u.delta))
			sec := min(int(t1.Sub(p.start)/time.Second), len(r.changesBySecond)-1)
			r.changesBySecond[sec] += int64(len(u.delta))
			r.lastEnd = t1
		}
		if n := p.w.readEvery(); n > 0 && (k+1)%n == 0 {
			if !p.readOne(c, r, s.reads[(k/n)%len(s.reads)]) {
				return
			}
		}
	}
}

// reader runs a dedicated read connection until the window closes.
func (p *pass) reader(s stream, c *conn, r *workerResult) {
	for k := 0; time.Now().Before(p.end); k++ {
		if !p.readOne(c, r, s.reads[k%len(s.reads)]) {
			return
		}
	}
}

// readOne issues one GET /v1/embedding and records it; false on failure.
func (p *pass) readOne(c *conn, r *workerResult, node int) bool {
	t0 := time.Now()
	var seq uint64
	if p.tr != nil {
		seq = p.tr.begin(kindRead, 0, t0)
	}
	c.req = getRequest(c.req[:0], "/v1/embedding?node=", node, seq)
	r.attempted++
	_, err := c.do(c.req, false)
	t1 := time.Now()
	if err != nil {
		r.failed++
		r.err = fmt.Errorf("read of node %d: %w", node, err)
		return false
	}
	if p.tr != nil {
		p.tr.finish(seq, t1)
	}
	if !t0.Before(p.start) {
		r.readLat.add(int64(t1.Sub(t0)))
		r.lastEnd = t1
	}
	return true
}

// runtimeWindow is what runtime/metrics said about the measured window.
type runtimeWindow struct {
	peakHeapBytes uint64
	allocBytes    uint64
	gcCPU, cpu    float64
	gcPauses      []float64 // pause durations in seconds (bucket bounds)
}

var runtimeSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// sampleRuntime reads runtime/metrics at the window's start (after running
// atStart) and after stop closes, sampling the heap every 10ms in between
// for its peak.
func sampleRuntime(start time.Time, stop <-chan struct{}, atStart func()) runtimeWindow {
	select {
	case <-time.After(time.Until(start)):
	case <-stop:
	}
	if atStart != nil {
		atStart()
	}
	before := make([]metrics.Sample, len(runtimeSamples))
	copy(before, runtimeSamples)
	metrics.Read(before)
	var out runtimeWindow
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case <-tick.C:
		case <-stop:
			done = true
		}
		metrics.Read(heap)
		out.peakHeapBytes = max(out.peakHeapBytes, heap[0].Value.Uint64())
	}
	after := make([]metrics.Sample, len(runtimeSamples))
	copy(after, runtimeSamples)
	metrics.Read(after)
	out.allocBytes = after[1].Value.Uint64() - before[1].Value.Uint64()
	out.gcCPU = after[2].Value.Float64() - before[2].Value.Float64()
	out.cpu = after[3].Value.Float64() - before[3].Value.Float64()
	hb, ha := before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram()
	for i := range ha.Counts {
		bound := ha.Buckets[i+1]
		if math.IsInf(bound, 1) {
			bound = ha.Buckets[i]
		}
		for c := ha.Counts[i] - hb.Counts[i]; c > 0; c-- {
			out.gcPauses = append(out.gcPauses, bound)
		}
	}
	return out
}

// roundsBody fetches every round profile the router retains.
func roundsBody(addr string) ([]byte, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	return c.do(getRequest(nil, "/v1/rounds?n=", roundRing, 0), true)
}
