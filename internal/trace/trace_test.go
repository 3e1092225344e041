package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"p2/internal/netif"
)

// closeBuf adapts bytes.Buffer to io.WriteCloser.
type closeBuf struct{ bytes.Buffer }

func (c *closeBuf) Close() error { return nil }

func TestRoundTrip(t *testing.T) {
	var buf closeBuf
	w := NewWriter(&buf)
	w.Record(Send, 0.5, "a", "b", []byte{1, 2, 3})
	w.Record(Recv, 0.75, "a", "b", []byte{1, 2, 3})
	w.Record(Recv, 1.25, "b", "a", nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version != Version || len(tr.Recs) != 3 {
		t.Fatalf("version=%d recs=%d", tr.Version, len(tr.Recs))
	}
	r := tr.Recs[1]
	if r.Dir != Recv || r.T != 0.75 || r.Src != "a" || r.Dst != "b" || !bytes.Equal(r.Payload, []byte{1, 2, 3}) {
		t.Fatalf("record mismatch: %+v", r)
	}
	if got := tr.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Nodes = %v", got)
	}
	if tr.End() != 1.25 {
		t.Fatalf("End = %v", tr.End())
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.p2trace")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(Recv, 2, "x", "y", []byte("payload"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Recs) != 1 || string(tr.Recs[0].Payload) != "payload" {
		t.Fatalf("recs = %+v", tr.Recs)
	}
}

func TestRejectsBadHeader(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTP2X\x00\x01"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Version 1 held fixed-width frames; recordings made with it must be
	// refused by name, not misread.
	for _, v := range []byte{1, 99} {
		_, err := Read(strings.NewReader(Magic + string([]byte{0, v})))
		want := fmt.Sprintf("version %d, this build reads only version %d", v, Version)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d header: err = %v, want one naming both versions (%q)", v, err, want)
		}
	}
}

func TestRejectsTruncatedRecord(t *testing.T) {
	var buf closeBuf
	w := NewWriter(&buf)
	w.Record(Send, 1, "a", "b", []byte{9, 9})
	w.Close()
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// memNet is a minimal synchronous Network for the wrapper test.
type memNet struct{ eps map[string]netif.DeliverFunc }

type memEp struct {
	net  *memNet
	addr string
}

func (m *memNet) Attach(addr string, d netif.DeliverFunc) (netif.Endpoint, error) {
	m.eps[addr] = d
	return &memEp{net: m, addr: addr}, nil
}
func (e *memEp) Send(to string, p []byte) {
	if d, ok := e.net.eps[to]; ok {
		d(e.addr, p)
	}
}
func (e *memEp) LocalAddr() string { return e.addr }
func (e *memEp) Close()            {}

func TestWrapNetworkRecordsBothDirections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wire.p2trace")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	inner := &memNet{eps: make(map[string]netif.DeliverFunc)}
	net := WrapNetwork(inner, w, func() float64 { return now })

	var delivered int
	if _, err := net.Attach("b", func(string, []byte) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	a, err := net.Attach("a", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	now = 3.5
	a.Send("b", []byte{7})
	if delivered != 1 {
		t.Fatal("wrapper broke delivery")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Recs) != 2 {
		t.Fatalf("recs = %d, want send+recv", len(tr.Recs))
	}
	s, r := tr.Recs[0], tr.Recs[1]
	if s.Dir != Send || s.Src != "a" || s.Dst != "b" || s.T != 3.5 {
		t.Fatalf("send rec: %+v", s)
	}
	if r.Dir != Recv || r.Src != "a" || r.Dst != "b" || len(r.Payload) != 1 || r.Payload[0] != 7 {
		t.Fatalf("recv rec: %+v", r)
	}
	_ = os.Remove(path)
}

// allocBytes reports the bytes f allocates, the smaller of two runs so
// a background allocation on the first does not count.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	best := ^uint64(0)
	for range 2 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// FuzzRead feeds arbitrary bytes to the trace reader, which replays
// files a user hands p2sim -replay. It must never panic, must allocate
// in proportion to the bytes it was given — a length field is a claim,
// not an allocation size — and whatever it reads must write back to
// the bytes it consumed. The seed corpus in testdata/fuzz/FuzzRead holds
// a recording of two Chord nodes on loopback UDP.
func FuzzRead(f *testing.F) {
	var buf closeBuf
	w := NewWriter(&buf)
	w.Record(Send, 0.5, "a", "b", []byte{1, 2, 3})
	w.Record(Recv, 0.75, "b", "a", nil)
	w.Close()
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr *Trace
		var err error
		if n := allocBytes(func() { tr, err = Read(bytes.NewReader(data)) }); n > uint64(64*len(data)+16384) {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var out closeBuf
		w := NewWriter(&out)
		for _, r := range tr.Recs {
			w.Record(r.Dir, r.T, r.Src, r.Dst, r.Payload)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("read %d records from % x, which write back as % x", len(tr.Recs), data, out.Bytes())
		}
	})
}
