package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers lists the per-layer buckets in report order. Every profile
// sample lands in exactly one of them, so a run's cpu_frac values sum
// to 1.
var layers = []string{
	"simclock", "engine", "workload", "router", "patroller", "core",
	"obs", "trace", "decisionlog", "checkpoint", "fault", "experiment", "gc",
}

// packageLayer maps each internal package to the layer it is charged to.
// An empty layer marks a shared toolkit: its frames are skipped like the
// standard library's, so its work lands on the layer that called it.
var packageLayer = map[string]string{
	"simclock":    "simclock",
	"engine":      "engine",
	"workload":    "workload",
	"optimizer":   "workload",
	"catalog":     "workload",
	"rng":         "workload",
	"router":      "router",
	"backend":     "router",
	"patroller":   "patroller",
	"core":        "core",
	"solver":      "core",
	"perfmodel":   "core",
	"detect":      "core",
	"utility":     "core",
	"queueing":    "core",
	"wlm":         "core",
	"obs":         "obs",
	"metrics":     "obs",
	"trace":       "trace",
	"decisionlog": "decisionlog",
	"checkpoint":  "checkpoint",
	"fault":       "fault",
	"experiment":  "experiment",
	"report":      "experiment",
	"prof":        "experiment",
	"lint":        "experiment",
	"stats":       "",
}

const (
	modulePrefix  = "repro/"
	harnessPrefix = "repro/perfbench"
)

// frame is one resolved stack frame.
type frame struct {
	fn, file string
}

// funcPackage returns the import path of a fully qualified function
// name such as "repro/internal/engine.(*Engine).advanceTo".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf charges a stack (innermost frame first) to a layer: the
// innermost frame in module code decides, except that a frame in a
// checkpoint.go file counts as checkpoint whatever its package. Standard
// library, runtime, shared-toolkit and benchmark frames are skipped, so
// their work lands on the module code that called them. A stack with no
// module frame is the garbage collector's or the runtime's own.
func layerOf(stack []frame) string {
	for _, f := range stack {
		pkg := funcPackage(f.fn)
		if !strings.HasPrefix(pkg, modulePrefix) || strings.HasPrefix(pkg, harnessPrefix) {
			continue
		}
		if strings.HasSuffix(f.file, "/checkpoint.go") {
			return "checkpoint"
		}
		layer, known := packageLayer[pkg[strings.LastIndex(pkg, "/")+1:]]
		if !known {
			// A package added after this table: glue until mapped
			// (TestEveryInternalPackageHasALayer flags it).
			return "experiment"
		}
		if layer == "" {
			continue
		}
		return layer
	}
	return "gc"
}

// cpuByLayer folds a gzipped CPU profile, as runtime/pprof writes it, into
// each layer's share of the samples.
func cpuByLayer(profile []byte) (map[string]float64, error) {
	stacks, weights, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var total float64
	for i, st := range stacks {
		out[layerOf(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	if total <= 0 {
		return nil, fmt.Errorf("perfbench: CPU profile holds no samples")
	}
	for _, l := range layers {
		out[l] /= total
	}
	return out, nil
}

// allocMBByLayer folds the runtime's allocation profile into megabytes
// allocated per layer, scaled up from the sampled records the way pprof
// scales them. Call runtime.GC first so the profile is current.
func allocMBByLayer() map[string]float64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	var stack []frame
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 {
			continue
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, frame{fn: f.Function, file: f.File})
			if !more {
				break
			}
		}
		b := float64(r.AllocBytes)
		if avg := b / float64(r.AllocObjects); rate > 0 {
			b /= 1 - math.Exp(-avg/rate)
		}
		out[layerOf(stack)] += b / 1e6
	}
	return out
}

// parseProfile decodes the subset of the pprof protobuf format that a
// CPU profile needs: each sample's stack (innermost frame first, inlined
// frames expanded) and its sample count.
func parseProfile(gz []byte) (stacks [][]frame, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	type fnRec struct{ name, file int64 }
	var (
		strs     []string
		samples  [][]uint64
		values   []int64
		locLines = map[uint64][]uint64{}
		funcs    = map[uint64]fnRec{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var val []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						val = append(val, int64(x))
					}
				}
				return nil
			})
			if err != nil || len(val) == 0 {
				return fmt.Errorf("perfbench: malformed sample")
			}
			samples = append(samples, locs)
			values = append(values, val[0])
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
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
			locLines[id] = fns
		case 5: // Function
			var id uint64
			var rec fnRec
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					rec.name = int64(v)
				case 4:
					rec.file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = rec
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, locs := range samples {
		var st []frame
		for _, loc := range locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				st = append(st, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, values[i])
	}
	return stacks, weights, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// fn gets the value in v; for length-delimited ones, the bytes in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("perfbench: bad protobuf key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("perfbench: bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("perfbench: short protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("perfbench: bad protobuf length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("perfbench: short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("perfbench: protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed (wire
// type 2) or one per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
