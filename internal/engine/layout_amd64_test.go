package engine

import (
	"testing"
	"unsafe"
)

// TestNodeHotFieldOffsets pins Node's size and the offsets of the fields
// every strand run touches. Closed-loop UDP throughput (udp_kv_put) has
// been seen to move by 7–11% when one 8-byte field was added ahead of
// these, with no other change: a throughput verdict on this struct can
// be a layout verdict. A change that moves a field here must update the
// pins on purpose and measure udp_kv_put against its parent in pairs.
// The file name limits it to amd64, where the offsets were taken.
func TestNodeHotFieldOffsets(t *testing.T) {
	var n Node
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"unsafe.Sizeof(Node{})", unsafe.Sizeof(n), 704},
		{"offset of stats", unsafe.Offsetof(n.stats), 264},
		{"offset of ctx", unsafe.Offsetof(n.ctx), 456},
		{"offset of pending", unsafe.Offsetof(n.pending), 664},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
