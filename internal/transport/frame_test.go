package transport

// Wire-format coverage: the golden frames that fix the layout frame.go
// documents, the worst-case header the MTU budget reserves, and the fuzz
// target for the receive path.

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/id"
	"p2/internal/netif"
	"p2/internal/tuple"
	"p2/internal/val"
)

// capEndpoint is a netif.Endpoint that records what the transport sends.
type capEndpoint struct{ sent [][]byte }

func (e *capEndpoint) Send(_ string, p []byte) { e.sent = append(e.sent, p) }
func (e *capEndpoint) LocalAddr() string       { return "self" }
func (e *capEndpoint) Close()                  {}

// goldenData is a data frame of two records, byte by byte.
var goldenData = []byte{
	0x00,       // type: data
	0x01, 0x02, // epoch: incarnation 1, flow restart 2
	0x03, 0x00, // ackEpoch: incarnation 3, flow restart 0
	0xac, 0x02, // cumAck 300
	0xe8, 0x07, // firstSeq 1000
	0x02, // gap 2: skip = 1000-1-2 = 997
	0x02, // count 2

	// record 1000: t("x", 5)
	0x01, 't', // name
	0x02,            // arity 2
	0x04, 0x01, 'x', // str, length 1
	0x02, 0x0a, // int, zigzag(5) = 10

	// record 1001: succ("n1:7", id 258, -3, time 1.5, null, true)
	0x04, 's', 'u', 'c', 'c',
	0x06,
	0x04, 0x04, 'n', '1', ':', '7',
	0x05, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x02, // id: 20 raw bytes
	0x02, 0x05, // int, zigzag(-3) = 5
	0x06, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0, // time: float64 bits of 1.5
	0x00,       // null
	0x01, 0x01, // bool true
}

// goldenAck is a bare ack frame, byte by byte.
var goldenAck = []byte{
	0x01,       // type: ack
	0x03, 0x00, // ackEpoch: incarnation 3, flow restart 0
	0xac, 0x02, // cumAck 300
}

func goldenTuples() []*tuple.Tuple {
	return []*tuple.Tuple{
		tuple.New("t", val.Str("x"), val.Int(5)),
		tuple.New("succ", val.Str("n1:7"), val.MakeID(id.FromUint64(258)), val.Int(-3), val.Time(1.5), val.Null, val.Bool(true)),
	}
}

// TestGoldenFrames fixes the wire format: the encoder writes exactly
// the golden bytes and the decoder reads exactly the golden fields.
func TestGoldenFrames(t *testing.T) {
	want := dataHeader{epoch: 1<<16 | 2, ackEpoch: 3 << 16, cumAck: 300, first: 1000, skip: 997, count: 2}
	if got := mkDataFrame(want.epoch, want.ackEpoch, want.cumAck, want.skip, want.first, goldenTuples()...); !bytes.Equal(got, goldenData) {
		t.Errorf("data frame encodes to\n% x, want\n% x", got, goldenData)
	}
	h, recs, ok := parseDataHeader(goldenData[1:])
	if !ok || h != want || len(recs) != len(goldenData)-11 {
		t.Errorf("data header decodes to %+v (ok=%v, %d record bytes), want %+v", h, ok, len(recs), want)
	}
	for i, wt := range goldenTuples() {
		tu, n, err := tuple.Unmarshal(recs)
		if err != nil || !tu.Equal(wt) {
			t.Fatalf("record %d decodes to %v, %v; want %v", i, tu, err, wt)
		}
		recs = recs[n:]
	}
	if got := appendAck(nil, 3<<16, 300); !bytes.Equal(got, goldenAck) {
		t.Errorf("ack frame encodes to % x, want % x", got, goldenAck)
	}
	if epoch, cum, ok := parseAck(goldenAck[1:]); !ok || epoch != 3<<16 || cum != 300 {
		t.Errorf("ack decodes to epoch %#x cum %d ok=%v", epoch, cum, ok)
	}
}

// TestWorstCaseHeaderFitsMTU: maxDataHeaderLen is what the encoder
// writes when every field is at its widest, and a transport whose epochs
// and sequence numbers are that wide still packs full batches that fit
// netif.MTU.
func TestWorstCaseHeaderFitsMTU(t *testing.T) {
	widest := dataHeader{epoch: math.MaxUint32, ackEpoch: math.MaxUint32, cumAck: math.MaxUint64,
		first: math.MaxUint64, skip: math.MaxUint64, count: maxBatchRecords}
	if got := len(appendDataHeader(nil, widest)); got != maxDataHeaderLen {
		t.Fatalf("widest header is %d bytes, maxDataHeaderLen says %d", got, maxDataHeaderLen)
	}

	loop := eventloop.NewSim()
	ep := &capEndpoint{}
	cfg := DefaultConfig()
	cfg.Epoch = 0xffff
	tr := New(loop, ep, cfg)
	// The peer's stream: epoch 0xffffffff, delivered up to 2^63.
	tr.Deliver("peer", mkDataFrame(math.MaxUint32, 0, 0, 0, 1, tp(0)))
	p := tr.peers["peer"]
	p.rcv.cum = 1 << 63
	// Our stream toward it: flow restarts exhausted, one record in flight
	// at sequence 1 (so skip stays 0 and the gap is as wide as firstSeq),
	// the next numbered from 2^63.
	tr.Send("peer", tp(0))
	loop.RunFor(0)
	p.bump = 0xffff
	p.send.cc.nextSeq = 1 << 63
	ep.sent = nil
	for i := int64(0); i < 2000; i++ {
		tr.Send("peer", tp(i))
	}
	loop.RunFor(0)

	if len(ep.sent) < 2 {
		t.Fatalf("the burst went out in %d frames; the test needs a full one", len(ep.sent))
	}
	full := ep.sent[0]
	h, _, ok := parseDataHeader(full[1:])
	if !ok || h.epoch != math.MaxUint32 || h.ackEpoch != math.MaxUint32 || h.cumAck != 1<<63 || h.first != 1<<63+1 || h.skip != 0 {
		t.Fatalf("the frame is not the wide one the test set up: %+v ok=%v", h, ok)
	}
	rec := len(tp(0).Marshal())
	if len(full) > netif.MTU || len(full) <= netif.MTU-(maxDataHeaderLen-len(appendDataHeader(nil, h)))-rec {
		t.Fatalf("full frame is %d bytes: want within one %d-byte record (and the header's unused width) of the %d-byte MTU, never above",
			len(full), rec, netif.MTU)
	}
}

// allocBytes reports the heap bytes one call of f allocates: the lesser
// of two runs, so that one-off growth (an interner shard's table) is
// not charged to the input that happened to trigger it.
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

// FuzzDeframe feeds arbitrary datagrams from one peer to a fresh
// reliable transport on a virtual loop. The receive path must never
// panic, never allocate more than a small multiple of the datagram
// (building the transport included), and whatever it accepts must
// re-encode to the datagram: the decoders accept only what the encoders
// write. The acks the transport answers with must themselves parse.
// testdata/fuzz/FuzzDeframe adds the corrupt frames of
// TestCorruptFrameIgnored and the hostile-sequence tests to the seeds.
func FuzzDeframe(f *testing.F) {
	f.Add(goldenData)
	f.Add(goldenAck)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []*tuple.Tuple
		var ep *capEndpoint
		run := func() {
			loop := eventloop.NewSim()
			ep = &capEndpoint{}
			tr := New(loop, ep, DefaultConfig())
			got = got[:0]
			tr.OnReceive(func(_ string, tu *tuple.Tuple) { got = append(got, tu) })
			tr.Deliver("peer", data)
			loop.Run(1) // the delayed ack
		}
		if n := allocBytes(run); n > uint64(64*len(data)+8192) {
			t.Fatalf("a %d-byte datagram cost %d bytes of allocation", len(data), n)
		}
		if len(data) == 0 {
			return
		}
		switch data[0] {
		case frameAck:
			if epoch, cum, ok := parseAck(data[1:]); ok && !bytes.Equal(appendAck(nil, epoch, cum), data) {
				t.Fatalf("ack % x parsed as epoch %#x cum %d, which encodes differently", data, epoch, cum)
			}
		case frameData:
			h, recs, ok := parseDataHeader(data[1:])
			if !ok {
				if len(got) > 0 {
					t.Fatalf("delivered %v from a frame whose header does not parse", got)
				}
				return
			}
			enc := appendDataHeader(nil, h)
			if !bytes.Equal(enc, data[:len(data)-len(recs)]) {
				t.Fatalf("header % x parsed as %+v, which encodes to % x", data[:len(data)-len(recs)], h, enc)
			}
			if len(got) == 0 {
				return
			}
			for _, tu := range got {
				enc = append(enc, tu.Marshal()...)
			}
			if len(got) != h.count || !bytes.Equal(enc, data) {
				t.Fatalf("delivered %v from % x, which re-encodes to % x", got, data, enc)
			}
		}
		for _, p := range ep.sent {
			if _, _, ok := parseAck(p[1:]); p[0] != frameAck || !ok {
				t.Fatalf("answered with % x, not a well-formed ack", p)
			}
		}
	})
}
