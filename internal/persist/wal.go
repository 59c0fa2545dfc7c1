package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// WAL is a write-ahead log of update batches. A service that persists a
// bundle periodically and appends every applied batch to a WAL can recover
// its exact state after a crash: load the bundle, then replay the WAL
// suffix. Records are framed and length-prefixed; a torn final record
// (crash mid-write) is detected and ignored on replay.
//
// Record layout (little-endian):
//
//	magic byte 'R' | payload length u32 | payload
//	payload: nEdges u32, nEdges × (u u32, v u32, insert u8),
//	         nVerts u32, nVerts × (node u32, dim u32, dim × f32)
type WAL struct {
	f *os.File
	w *bufio.Writer
	// lat, when set, observes per-Append latency in nanoseconds — encode,
	// buffered write, flush and fsync together, i.e. the durability cost a
	// served update pays before it reaches the engine.
	lat *obs.Histogram
}

// SetLatencyHistogram installs a histogram observing Append latency (nil
// disables). The HTTP server injects its registered WAL histogram here so
// /metrics exposes journal fsync behaviour.
func (w *WAL) SetLatencyHistogram(h *obs.Histogram) { w.lat = h }

// OpenWAL opens (or creates) a log for appending. A torn final record left
// by a crash is cut off first, and the truncation is fsynced before any
// append: otherwise new records would land behind the torn bytes, and the
// torn header's length field would swallow them on the next read. A log
// that is corrupt rather than torn is an error.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	_, valid, torn, err := readRecords(f)
	if err == nil && torn {
		if err = f.Truncate(valid); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: opening WAL %s: %w", path, err)
	}
	return &WAL{f: f, w: bufio.NewWriter(f)}, nil
}

// Append writes one applied batch. The record only becomes durable after
// the implicit flush+sync; Append performs both before returning, so a
// successful Append means the batch survives a crash. Callers journaling
// several batches at once should prefer AppendBuffered + one Commit
// (group commit): the fsync is by far the dominant cost and one covers
// every record buffered behind it.
func (w *WAL) Append(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	var t0 time.Time
	if w.lat != nil {
		t0 = time.Now()
		defer func() { w.lat.ObserveDuration(time.Since(t0)) }()
	}
	if err := w.AppendBuffered(delta, vups); err != nil {
		return err
	}
	return w.commit()
}

// AppendBuffered encodes and writes one record into the log's buffer
// without making it durable. The record reaches the OS (and survives a
// process crash, though not a machine crash) only after a later Commit;
// a torn tail from a crash between the two is detected and dropped on
// replay, exactly like a crash mid-Append.
func (w *WAL) AppendBuffered(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	payload := encodeBatch(delta, vups)
	hdr := make([]byte, 5)
	hdr[0] = 'R'
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// Commit flushes and fsyncs everything buffered by AppendBuffered since
// the previous commit — the group-commit barrier. After a nil return,
// every buffered record survives a crash.
func (w *WAL) Commit() error {
	var t0 time.Time
	if w.lat != nil {
		t0 = time.Now()
		defer func() { w.lat.ObserveDuration(time.Since(t0)) }()
	}
	return w.commit()
}

func (w *WAL) commit() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func encodeBatch(delta graph.Delta, vups []inkstream.VertexUpdate) []byte {
	size := 4 + len(delta)*9 + 4
	for _, v := range vups {
		size += 8 + 4*len(v.X)
	}
	buf := make([]byte, 0, size)
	var scratch [4]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	u32(uint32(len(delta)))
	for _, c := range delta {
		u32(uint32(c.U))
		u32(uint32(c.V))
		if c.Insert {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	u32(uint32(len(vups)))
	for _, v := range vups {
		u32(uint32(v.Node))
		u32(uint32(len(v.X)))
		for _, x := range v.X {
			u32(uint32(float32bits(x)))
		}
	}
	return buf
}

// Batch is one decoded WAL record.
type Batch struct {
	Delta graph.Delta
	Vups  []inkstream.VertexUpdate
}

// ReadWAL decodes every complete record from path. A torn trailing record
// is tolerated (reported via the second return); any other corruption is
// an error.
func ReadWAL(path string) ([]Batch, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	out, _, torn, err := readRecords(f)
	return out, torn, err
}

// readRecords decodes every complete record from r. valid is the byte
// length of that complete prefix; torn reports a partial record after it.
func readRecords(r io.Reader) (out []Batch, valid int64, torn bool, err error) {
	br := bufio.NewReader(r)
	for {
		hdr := make([]byte, 5)
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return out, valid, false, nil
			}
			return out, valid, true, nil // torn header
		}
		if hdr[0] != 'R' {
			return nil, 0, false, fmt.Errorf("persist: bad WAL record marker %q", hdr[0])
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		if n > maxElems {
			return nil, 0, false, fmt.Errorf("persist: implausible WAL record size %d", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, valid, true, nil // torn payload
		}
		b, err := decodeBatch(payload)
		if err != nil {
			return nil, 0, false, err
		}
		out = append(out, b)
		valid += int64(len(hdr)) + int64(n)
	}
}

func decodeBatch(p []byte) (Batch, error) {
	var b Batch
	off := 0
	u32 := func() (uint32, error) {
		if off+4 > len(p) {
			return 0, fmt.Errorf("persist: truncated WAL payload")
		}
		v := binary.LittleEndian.Uint32(p[off:])
		off += 4
		return v, nil
	}
	nEdges, err := u32()
	if err != nil {
		return b, err
	}
	for i := uint32(0); i < nEdges; i++ {
		u, err := u32()
		if err != nil {
			return b, err
		}
		v, err := u32()
		if err != nil {
			return b, err
		}
		if off >= len(p) {
			return b, fmt.Errorf("persist: truncated WAL payload")
		}
		ins := p[off] == 1
		off++
		b.Delta = append(b.Delta, graph.EdgeChange{U: graph.NodeID(u), V: graph.NodeID(v), Insert: ins})
	}
	nVerts, err := u32()
	if err != nil {
		return b, err
	}
	for i := uint32(0); i < nVerts; i++ {
		node, err := u32()
		if err != nil {
			return b, err
		}
		dim, err := u32()
		if err != nil {
			return b, err
		}
		if dim > 1<<20 {
			return b, fmt.Errorf("persist: implausible WAL feature dim %d", dim)
		}
		x := make(tensor.Vector, dim)
		for j := range x {
			bits, err := u32()
			if err != nil {
				return b, err
			}
			x[j] = float32frombits(bits)
		}
		b.Vups = append(b.Vups, inkstream.VertexUpdate{Node: graph.NodeID(node), X: x})
	}
	return b, nil
}

// Replay applies every batch in order to the engine.
func Replay(engine *inkstream.Engine, batches []Batch) error {
	for i, b := range batches {
		if err := engine.Apply(b.Delta, b.Vups); err != nil {
			return fmt.Errorf("persist: WAL replay batch %d: %w", i, err)
		}
	}
	return nil
}

func float32bits(f float32) uint32     { return math.Float32bits(f) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }
