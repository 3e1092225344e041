//go:build unix

package udpnet

import (
	"net"
	"net/netip"
	"runtime"
	"testing"

	"p2/internal/eventloop"
)

// recvAllocsPerDatagram is what the pooled reader may allocate per
// datagram: the kernel's sockaddr, the payload and the closure posted
// to the loop. The buffer and the sender's name are reused.
const recvAllocsPerDatagram = 3

// TestRecvAllocs pins the receive side's allocations per datagram over
// a lockstep exchange: a raw sender sends one datagram, waits until the
// endpoint has delivered it, sends the next. The sender's own
// allocations, measured into a socket nobody reads, are subtracted.
// Like testing.AllocsPerRun, the count per datagram is the integer
// quotient, so a stray allocation elsewhere in the process over the
// whole exchange does not count.
func TestRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	const n = 2000
	loop := eventloop.NewReal()
	go loop.Run()
	defer loop.Stop()
	got := make(chan struct{}, 1)
	ep, err := New(loop).Attach("127.0.0.1:0", func(string, []byte) { got <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	dst := netip.MustParseAddrPort(ep.LocalAddr())

	src := listenUDP(t, "127.0.0.1:0")
	sink := listenUDP(t, "127.0.0.1:0")
	payload := make([]byte, 100)
	send := func(to netip.AddrPort) {
		if _, err := src.WriteToUDPAddrPort(payload, to); err != nil {
			t.Fatal(err)
		}
	}
	sinkAddr := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	sendAllocs := testing.AllocsPerRun(100, func() { send(sinkAddr) })

	exchange := func(k int) {
		for i := 0; i < k; i++ {
			send(dst)
			<-got
		}
	}
	exchange(100) // warm the pool, the sender cache and the loop's queue
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exchange(n)
	runtime.ReadMemStats(&after)
	total := int(after.Mallocs - before.Mallocs)
	perDatagram := total/n - int(sendAllocs)
	t.Logf("%d allocations over %d datagrams; the sender's own: %.0f per datagram", total, n, sendAllocs)
	if perDatagram > recvAllocsPerDatagram {
		t.Fatalf("receive side allocates %d per datagram, want <= %d", perDatagram, recvAllocsPerDatagram)
	}
}
