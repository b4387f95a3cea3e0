package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets a CPU profile's flat time is split into: the
// simulator's module directories, the Go runtime, the rest of the standard
// library, other internal packages, and the benchmark's own code. Every
// sample lands in exactly one, so the shares sum to 1.
var cpuModules = []string{
	"sim", "flash", "ftl", "zns", "hostftl", "zkv", "placement", "zcache",
	"telemetry", "stats", "core", "workload", "runtime", "stdlib", "other", "bench",
}

// moduleOf maps a profiled function name to its bucket in cpuModules.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "blockhead/perfbench"):
		return "bench"
	case strings.HasPrefix(pkg, "blockhead/internal/"):
		dir := strings.TrimPrefix(pkg, "blockhead/internal/")
		if i := strings.IndexByte(dir, '/'); i >= 0 {
			dir = dir[:i]
		}
		for _, m := range cpuModules {
			if m == dir {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "blockhead"):
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || !strings.Contains(fn, "."):
		return "runtime"
	}
	return "stdlib"
}

// cpuShares decodes a gzipped pprof CPU profile (as runtime/pprof writes
// it) and returns each cpuModules bucket's share of the flat CPU time: a
// sample is charged to the function at the top of its stack, the innermost
// inlined frame included.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		leafFn  = map[uint64]uint64{} // location id -> innermost function id
		samples []struct {
			loc uint64
			v   int64
		}
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var loc uint64
			var vals []int64
			first := true
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 2 && first: // packed location ids
					loc, _ = binary.Uvarint(b)
					first = false
				case f == 1 && w == 0 && first:
					loc, first = v, false
				case f == 2 && w == 2:
					return pbPacked(b, func(x uint64) { vals = append(vals, int64(x)) })
				case f == 2 && w == 0:
					vals = append(vals, int64(v))
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			samples = append(samples, struct {
				loc uint64
				v   int64
			}{loc, vals[len(vals)-1]})
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2 && !seenLine: // first Line is the innermost frame
					seenLine = true
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && f == 1 {
					id = v
				} else if w == 0 && f == 2 {
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total int64
	for _, s := range samples {
		name := ""
		if si, ok := funcs[leafFn[s.loc]]; ok && si >= 0 && si < int64(len(strs)) {
			name = strs[si]
		}
		shares[moduleOf(name)] += float64(s.v)
		total += s.v
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for m := range shares {
		shares[m] /= float64(total)
	}
	return shares, nil
}

// pbFields walks the top-level fields of a protobuf message, calling fn
// with the varint value (wire type 0) or the payload (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// pbPacked decodes a packed repeated varint field.
func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
