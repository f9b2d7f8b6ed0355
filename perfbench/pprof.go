package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU profile sample: its stack as function names, leaf
// first, and its weight in samples.
type sample struct {
	Stack []string
	Count int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what the per-module fold needs: each sample's
// stack of function names (inlined frames included) and its count.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s rawSample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && i < int64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, sample{Stack: stack, Count: s.count})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's
// number, wire type, and its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint; n is 0 when b ends inside it.
func varint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// Layer names for samples outside the repository's modules.
const (
	layerBench   = "bench"         // the benchmark's own code
	layerRuntime = "go-runtime"    // the Go runtime with no repository frame on the stack (GC, scheduler)
	layerOther   = "runtime/other" // anything else
)

// moduleOf maps a function name to its repository module: the package
// under vax780/internal, or the benchmark itself. It returns "" for
// everything else.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "vax780/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "vax780/perfbench.") {
		return layerBench
	}
	return ""
}

// fold attributes each sample to the innermost repository frame on its
// stack, so a standard-library call a module makes (hashing, file writes)
// counts for that module. Samples with no repository frame go to the Go
// runtime when their leaf is in it, and to runtime/other when not. It
// returns each layer's sample count and the total.
func fold(samples []sample) (map[string]int64, int64) {
	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.Count
		layer := ""
		for _, fn := range s.Stack {
			if layer = moduleOf(fn); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = layerOther
			if len(s.Stack) > 0 && strings.HasPrefix(s.Stack[0], "runtime.") {
				layer = layerRuntime
			}
		}
		out[layer] += s.Count
	}
	return out, total
}

// onStack counts the samples with fn anywhere on their stack.
func onStack(samples []sample, fn string) int64 {
	var n int64
	for _, s := range samples {
		for _, f := range s.Stack {
			if f == fn {
				n += s.Count
				break
			}
		}
	}
	return n
}
