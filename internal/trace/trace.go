// Package trace records wire-level datagram traces from a live
// deployment to a versioned file and reads them back for offline
// replay. A trace captures every framed datagram a node sent or
// received — direction, the node's clock, source and destination
// addresses, and the exact frame bytes — below the transport's element
// chain, so a replay reproduces precisely what the network delivered,
// retransmissions and all.
//
// File format (all integers big-endian):
//
//	header: | "P2WIRE" | version u16 |
//	record: | dir u8 | t f64 | srcLen u16 | src | dstLen u16 | dst | payLen u32 | payload |
//
// repeated to EOF. Times are seconds on the recording node's own event
// loop clock (which starts near zero at spawn), so replaying a node's
// inbound records at their recorded times through a virtual-time
// simulator reproduces its field schedule.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"sync"

	"p2/internal/netif"
)

// Magic opens every trace file, followed by the format version.
const Magic = "P2WIRE"

// Version is the current trace-file format version. A trace stores raw
// transport frames, so the version also names their codec: 2 is the
// varint frame layout (internal/transport/frame.go). Version-1 files
// hold fixed-width frames this build cannot decode, and no reader for
// them is kept.
const Version uint16 = 2

// Dir is a record's direction relative to the recording node.
type Dir uint8

// Directions.
const (
	Send Dir = 0 // the node put the datagram on the wire
	Recv Dir = 1 // the network delivered the datagram to the node
)

// String names the direction.
func (d Dir) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// Rec is one recorded datagram.
type Rec struct {
	Dir     Dir
	T       float64 // seconds on the recording node's loop clock
	Src     string
	Dst     string
	Payload []byte
}

// Writer appends records to a trace stream. Safe for concurrent use —
// a deployment's nodes record from their own event-loop goroutines into
// one shared file.
type Writer struct {
	mu  sync.Mutex
	out io.Closer
	bw  *bufio.Writer
	err error
}

// NewWriter starts a trace stream on w, emitting the header.
func NewWriter(w io.WriteCloser) *Writer {
	tw := &Writer{out: w, bw: bufio.NewWriter(w)}
	tw.bw.WriteString(Magic)
	var v [2]byte
	binary.BigEndian.PutUint16(v[:], Version)
	_, tw.err = tw.bw.Write(v[:])
	return tw
}

// Create opens path for writing and starts a trace stream on it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewWriter(f), nil
}

// Record appends one datagram. Errors are sticky and surface at Close.
func (w *Writer) Record(dir Dir, t float64, src, dst string, payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	var hdr [1 + 8]byte
	hdr[0] = byte(dir)
	binary.BigEndian.PutUint64(hdr[1:9], math.Float64bits(t))
	w.bw.Write(hdr[:])
	w.str(src)
	w.str(dst)
	var plen [4]byte
	binary.BigEndian.PutUint32(plen[:], uint32(len(payload)))
	w.bw.Write(plen[:])
	_, w.err = w.bw.Write(payload)
}

func (w *Writer) str(s string) {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	w.bw.Write(l[:])
	w.bw.WriteString(s)
}

// Close flushes and closes the stream, returning the first error the
// writer encountered.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ferr := w.bw.Flush(); w.err == nil {
		w.err = ferr
	}
	if cerr := w.out.Close(); w.err == nil {
		w.err = cerr
	}
	return w.err
}

// Trace is a fully read trace.
type Trace struct {
	Version uint16
	Recs    []Rec
}

// Read parses a trace stream.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, len(Magic)+2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:len(Magic)])
	}
	tr := &Trace{Version: binary.BigEndian.Uint16(hdr[len(Magic):])}
	if tr.Version != Version {
		return nil, fmt.Errorf("trace: file is format version %d, this build reads only version %d", tr.Version, Version)
	}
	for {
		var rh [1 + 8]byte
		if _, err := io.ReadFull(br, rh[:]); err == io.EOF {
			return tr, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(tr.Recs), err)
		}
		rec := Rec{Dir: Dir(rh[0]), T: math.Float64frombits(binary.BigEndian.Uint64(rh[1:9]))}
		var err error
		if rec.Src, err = readStr(br); err != nil {
			return nil, fmt.Errorf("trace: record %d src: %w", len(tr.Recs), err)
		}
		if rec.Dst, err = readStr(br); err != nil {
			return nil, fmt.Errorf("trace: record %d dst: %w", len(tr.Recs), err)
		}
		var plen [4]byte
		if _, err := io.ReadFull(br, plen[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d payload length: %w", len(tr.Recs), err)
		}
		if rec.Payload, err = readN(br, int(binary.BigEndian.Uint32(plen[:]))); err != nil {
			return nil, fmt.Errorf("trace: record %d payload: %w", len(tr.Recs), err)
		}
		tr.Recs = append(tr.Recs, rec)
	}
}

func readStr(br *bufio.Reader) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(br, l[:]); err != nil {
		return "", err
	}
	b, err := readN(br, int(binary.BigEndian.Uint16(l[:])))
	return string(b), err
}

// readN reads exactly n bytes. A length field is a claim the file makes,
// not an allocation size: the buffer starts at one chunk and doubles as
// the bytes actually arrive, so a record claiming more than the file
// holds costs about what the file holds.
func readN(r io.Reader, n int) ([]byte, error) {
	const chunk = 4096
	b := make([]byte, 0, min(n, chunk))
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), cap(b)))
		}
		m, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ReadFile reads a trace file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Nodes returns the distinct recorded endpoints — every address that
// recorded a send or a delivery — in sorted order.
func (tr *Trace) Nodes() []string {
	set := make(map[string]bool)
	for _, r := range tr.Recs {
		switch r.Dir {
		case Send:
			set[r.Src] = true
		case Recv:
			set[r.Dst] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// End returns the latest timestamp in the trace.
func (tr *Trace) End() float64 {
	var end float64
	for _, r := range tr.Recs {
		if r.T > end {
			end = r.T
		}
	}
	return end
}

// WrapNetwork records every datagram the wrapped network carries for
// one node: sends at Send time, deliveries as they come off the wire,
// both stamped with the node's clock. The wrapper sits directly above
// the physical network and below any fault injection — what it records
// is what actually crossed the wire.
func WrapNetwork(inner netif.Network, w *Writer, clock func() float64) netif.Network {
	return &recNet{inner: inner, w: w, clock: clock}
}

type recNet struct {
	inner netif.Network
	w     *Writer
	clock func() float64
}

func (rn *recNet) Attach(addr string, deliver netif.DeliverFunc) (netif.Endpoint, error) {
	wrapped := func(from string, payload []byte) {
		rn.w.Record(Recv, rn.clock(), from, addr, payload)
		deliver(from, payload)
	}
	ep, err := rn.inner.Attach(addr, wrapped)
	if err != nil {
		return nil, err
	}
	return &recEndpoint{inner: ep, net: rn}, nil
}

type recEndpoint struct {
	inner netif.Endpoint
	net   *recNet
}

func (e *recEndpoint) Send(to string, payload []byte) {
	e.net.w.Record(Send, e.net.clock(), e.inner.LocalAddr(), to, payload)
	e.inner.Send(to, payload)
}

func (e *recEndpoint) LocalAddr() string { return e.inner.LocalAddr() }
func (e *recEndpoint) Close()            { e.inner.Close() }
