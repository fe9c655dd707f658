package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// profiler holds one in-memory CPU profile and the allocation counts
// over the same window.
type profiler struct {
	buf     bytes.Buffer
	running bool
	ms0     runtime.MemStats
	alloc   allocStats
}

type allocStats struct{ bytes, mallocs uint64 }

func startProfile() (*profiler, error) {
	p := &profiler{}
	runtime.ReadMemStats(&p.ms0)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	p.running = true
	return p, nil
}

// finish stops the profile and reads the allocation counts; later calls
// do nothing.
func (p *profiler) finish() {
	if !p.running {
		return
	}
	pprof.StopCPUProfile()
	p.running = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc = allocStats{bytes: ms.TotalAlloc - p.ms0.TotalAlloc, mallocs: ms.Mallocs - p.ms0.Mallocs}
}

// folded decodes the finished profile and folds it by layer.
func (p *profiler) folded() (folding, error) {
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return folding{}, err
	}
	return fold(samples), nil
}

// layers are the simulator packages, under vrsim/internal/, that a
// profile is folded into.
var layers = []string{"workloads", "graph", "cpu", "isa", "mem", "branch", "prefetch", "core", "harness", "oracle"}

// stages are per-layer metrics counting the samples with one of the
// named functions anywhere on the stack (inclusive time).
var stages = []struct {
	metric string
	funcs  []string
}{
	{"cpu.fetch_s", []string{"vrsim/internal/cpu.(*Core).fetch"}},
	{"cpu.dispatch_s", []string{"vrsim/internal/cpu.(*Core).dispatch"}},
	{"cpu.issue_s", []string{"vrsim/internal/cpu.(*Core).issue"}},
	{"cpu.commit_s", []string{"vrsim/internal/cpu.(*Core).commit"}},
	{"core.tick_s", []string{"vrsim/internal/core.(*VR).Tick", "vrsim/internal/core.(*PRE).Tick", "vrsim/internal/core.(*ClassicRA).Tick"}},
	{"mem.access_s", []string{"vrsim/internal/mem.(*Hierarchy).Access", "vrsim/internal/mem.(*Hierarchy).Prefetch"}},
}

// sample is one profile sample: its function names, innermost first
// (inlined calls included), and the CPU time it stands for.
type sample struct {
	frames []string
	ns     int64
}

// folding is a profile folded by layer. Every sample lands in exactly
// one self entry, so the self times sum to total.
type folding struct {
	total time.Duration
	// self is keyed by layer, or "runtime" for stacks with no simulator
	// frame (GC workers, the scheduler).
	self  map[string]time.Duration
	stage map[string]time.Duration
}

// layerOf returns the layer a function belongs to, or "" for functions
// outside the simulator's layers.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "vrsim/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if slices.Contains(layers, pkg) {
		return pkg
	}
	return ""
}

// fold attributes each sample to the innermost frame in a simulator
// layer: runtime frames (map lookups, allocation, write barriers) go to
// the layer that called them, and inlined functions to their own layer.
func fold(samples []sample) folding {
	f := folding{self: map[string]time.Duration{}, stage: map[string]time.Duration{}}
	for _, s := range samples {
		d := time.Duration(s.ns)
		f.total += d
		layer := "runtime"
		for _, fn := range s.frames {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		f.self[layer] += d
		for _, st := range stages {
			if slices.ContainsFunc(s.frames, func(fn string) bool { return slices.Contains(st.funcs, fn) }) {
				f.stage[st.metric] += d
			}
		}
	}
	return f
}

// setProfile sets the profile-derived per-layer metrics.
func setProfile(m metrics, f folding, alloc allocStats) {
	for _, l := range layers {
		m.set(l+".self_s", f.self[l].Seconds(), "s")
	}
	m.set("runtime.gc_s", f.self["runtime"].Seconds(), "s")
	for _, st := range stages {
		m.set(st.metric, f.stage[st.metric].Seconds(), "s")
	}
	m.set("runtime.alloc_mb", float64(alloc.bytes)/(1<<20), "MiB")
	m.set("runtime.mallocs", float64(alloc.mallocs), "count")
}

var errBadProfile = errors.New("malformed CPU profile")

// decodeProfile reads the samples of a gzipped profile.proto message,
// as runtime/pprof writes it, weighting each by its CPU nanoseconds.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs       []string
		types      []uint64              // sample_type type names, as string indices
		funcName   = map[uint64]uint64{} // function id -> name string index
		locFuncs   = map[uint64][]uint64{}
		rawSamples []rawSample
	)
	// Field numbers are those of profile.proto.
	err = fields(raw, func(num int, wt uint64, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return fields(b, func(n int, _ uint64, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample: Sample{location_id = 1, value = 2}
			var s rawSample
			err := fields(b, func(n int, wt uint64, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendUints(s.locs, wt, v, b)
				case 2:
					s.vals, err = appendUints(s.vals, wt, v, b)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location: Location{id = 1, line = 4}; Line{function_id = 1}
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, _ uint64, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, _ uint64, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: Function{id = 1, name = 2}
			var id, name uint64
			err := fields(b, func(n int, _ uint64, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			if wt != 2 {
				return errBadProfile
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	samples := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if cpuIdx < 0 || cpuIdx >= len(rs.vals) {
			return nil, fmt.Errorf("decode CPU profile: %w: sample has %d values", errBadProfile, len(rs.vals))
		}
		s := sample{ns: int64(rs.vals[cpuIdx])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.frames = append(s.frames, str(funcName[fn]))
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// fields calls fn for each field of a protobuf message with its number
// and wire type: varint and fixed-width fields carry their value in v,
// length-delimited ones their bytes in b.
func fields(msg []byte, fn func(num int, wt uint64, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProfile
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch wt := key & 7; wt {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errBadProfile
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProfile
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errBadProfile
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProfile
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errBadProfile
		}
		if err := fn(int(key>>3), key&7, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends one repeated varint field occurrence, which the
// encoder may write packed (wire type 2) or one value at a time.
func appendUints(dst []uint64, wt uint64, v uint64, b []byte) ([]uint64, error) {
	if wt != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
