package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes:
// only the sample, location, function and string-table fields the span
// attribution needs. The module takes no dependencies, so this stands in
// for github.com/google/pprof/profile.

// profSample is one CPU-profile sample.
type profSample struct {
	count  int64
	stack  []string    // function names, leaf first, inlined frames expanded
	labels [][2]string // key, value
}

func (s profSample) label(key string) string {
	for _, kv := range s.labels {
		if kv[0] == key {
			return kv[1]
		}
	}
	return ""
}

var errProto = errors.New("malformed profile.proto")

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

type rawSample struct {
	locs   []uint64
	count  int64
	labels [][2]int64 // string-table indices
}

func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		raws    []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnNames = map[uint64]int64{}    // function id → name string index
	)
	err = fields(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case profSampleField:
			s, err := parseSample(b)
			raws = append(raws, s)
			return err
		case profLocationField:
			id, fns, err := parseLocation(b)
			locFns[id] = fns
			return err
		case profFunctionField:
			id, name, err := parseFunction(b)
			fnNames[id] = name
			return err
		case profStringField:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("%w: string index %d", errProto, i)
		}
		return strs[i], nil
	}
	out := make([]profSample, 0, len(raws))
	for _, r := range raws {
		s := profSample{count: r.count}
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				name, err := str(fnNames[fn])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		for _, kv := range r.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			s.labels = append(s.labels, [2]string{k, v})
		}
		out = append(out, s)
	}
	return out, nil
}

// parseSample reads a Sample: location_id = 1, value = 2 (the first value
// of a CPU profile is the sample count), label = 3.
func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	first := true
	err := fields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1:
			ids, err := repeated(wire, v, data)
			s.locs = append(s.locs, ids...)
			return err
		case 2:
			vals, err := repeated(wire, v, data)
			if first && len(vals) > 0 {
				s.count, first = int64(vals[0]), false
			}
			return err
		case 3:
			var kv [2]int64
			err := fields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					kv[num-1] = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, kv)
			return err
		}
		return nil
	})
	return s, err
}

// parseLocation reads a Location: id = 1, line = 4 (Line.function_id = 1).
func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = fields(b, func(num, _ int, v uint64, data []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			return fields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

// parseFunction reads a Function: id = 1, name = 2.
func parseFunction(b []byte) (id uint64, name int64, err error) {
	err = fields(b, func(num, _ int, v uint64, _ []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	return id, name, err
}

// repeated decodes a repeated varint field, packed (wire type 2) or not.
func repeated(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}

// fields walks the protobuf wire-format fields of b, calling fn with each
// field's number, wire type, and its varint value or length-delimited bytes.
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errProto
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
