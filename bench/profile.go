package main

// The traced run's CPU ledger: a runtime/pprof CPU profile taken around
// the window, decoded here (a pprof profile is a gzipped protocol
// buffer; the reader below understands just the fields it needs, so no
// module dependency is added), and each sample's time assigned to one
// layer.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers CPU time is attributed to, one
// `<layer>.cpu_frac` metric each; together they sum to 1.
var cpuLayers = []string{
	"overlog", "planner", "pel", "val", "id", "tuple", "table", "dataflow",
	"engine", "eventloop", "transport", "simnet", "udpnet", "netif",
	"introspect", "p2", "bench",
	"runtime.gc", "runtime.malloc", "runtime.sched", "syscall", "other",
}

// packageLayer assigns every package of the module to a layer. Packages
// that are not part of a running deployment (reference implementations,
// experiment drivers) go to "other"; bench_test.go fails when a package
// under internal/ is missing here.
var packageLayer = map[string]string{
	"p2":                      "p2",
	"main":                    "bench",
	"p2/bench":                "bench", // this package's name inside its test binary
	"p2/internal/overlog":     "overlog",
	"p2/internal/planner":     "planner",
	"p2/internal/overlays":    "planner", // compile wrappers over the shipped specs
	"p2/internal/pel":         "pel",
	"p2/internal/val":         "val",
	"p2/internal/id":          "id",
	"p2/internal/tuple":       "tuple",
	"p2/internal/table":       "table",
	"p2/internal/dataflow":    "dataflow",
	"p2/internal/engine":      "engine",
	"p2/internal/eventloop":   "eventloop",
	"p2/internal/transport":   "transport",
	"p2/internal/simnet":      "simnet",
	"p2/internal/udpnet":      "udpnet",
	"p2/internal/netif":       "netif",
	"p2/internal/trace":       "netif", // the wire recorder wraps a netif.Network
	"p2/internal/introspect":  "introspect",
	"p2/internal/health":      "introspect",
	"p2/internal/kvs":         "p2", // the KV client's shared vocabulary
	"p2/internal/seed":        "p2",
	"p2/internal/chordref":    "other",
	"p2/internal/experiments": "other",
	"p2/internal/harness":     "other",
	"p2/internal/scenario":    "other",
	"p2/internal/workload":    "other",
}

// funcPackage extracts the package path from a symbol name such as
// "p2/internal/pel.(*VM).run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Name prefixes (after "runtime.") of the frames that mark a stack as
// collector, allocator or scheduler time.
var (
	gcFrames = []string{"gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcMark", "gcStart", "gcSweep",
		"bgsweep", "bgscavenge", "sweepone", "scanobject", "greyobject", "markroot", "wbBuf", "gcWriteBarrier"}
	mallocFrames = []string{"mallocgc", "newobject", "growslice", "makeslice", "makemap", "newarray"}
	schedFrames  = []string{"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "wakep",
		"startm", "stopm", "mcall", "gosched", "goschedImpl", "futex", "notesleep", "notewakeup", "notetsleep",
		"netpoll", "usleep", "osyield", "runqgrab", "stealWork", "resetspinning", "mPark", "execute",
		"entersyscall", "exitsyscall", "reentersyscall", "lock2", "unlock2"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// runtimeClass recognises the frames that mark a stack as garbage
// collection, allocation, scheduling or system-call time.
func runtimeClass(fn string) string {
	switch pkg := funcPackage(fn); pkg {
	case "syscall", "internal/poll", "internal/runtime/syscall", "runtime/internal/syscall", "net":
		return "syscall"
	case "runtime":
	default:
		return ""
	}
	switch name := strings.TrimPrefix(fn, "runtime."); {
	case hasAnyPrefix(name, gcFrames):
		return "runtime.gc"
	case hasAnyPrefix(name, mallocFrames):
		return "runtime.malloc"
	case hasAnyPrefix(name, schedFrames):
		return "runtime.sched"
	}
	return ""
}

// layerOfStack assigns one sample to a layer. stack lists function
// names leaf first. Walking up from the leaf, the first frame that is a
// runtime marker (GC, allocation, scheduling, system call) or belongs
// to a package of this module decides: so a memmove or map access is
// charged to the layer that called it, an allocation to runtime.malloc
// whoever asked for it, and a stack with neither to "other".
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if c := runtimeClass(fn); c != "" {
			return c
		}
		if layer, ok := packageLayer[funcPackage(fn)]; ok {
			return layer
		}
	}
	return "other"
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of the sampled
// CPU time.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return layerShares(samples), nil
}

func layerShares(samples []profSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	var total float64
	for _, s := range samples {
		shares[layerOfStack(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}

// profSample is one profile sample: its call stack as function names,
// leaf first, and its last value (CPU nanoseconds in a CPU profile).
type profSample struct {
	stack []string
	value int64
}

// decodeProfile reads a gzipped pprof protocol buffer.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Profile message: 2 sample, 4 location, 5 function, 6 string_table.
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf-most first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: 1 location_id, 2 value
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location: 1 id, 4 line { 1 function_id }
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: 1 id, 2 name
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated integer field's values: either the
// single varint v, or the packed run in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// eachField walks the fields of one protocol-buffer message, calling fn
// with the varint value (wire type 0) or the bytes (wire type 2) of
// each; fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: truncated field tag")
		}
		msg = msg[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: truncated varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: truncated bytes field")
			}
			if err := fn(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
