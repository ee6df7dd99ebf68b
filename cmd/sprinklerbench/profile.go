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

// cpuShares decodes a gzipped pprof CPU profile and returns each cpu.*
// metric's share of the sampled CPU time, attributing every sample to the
// package of its leaf frame (self time). It also returns the share of
// samples labelled side=server. The shares sum to 1.
func cpuShares(profile []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(p.strings) {
			return ""
		}
		return p.strings[i]
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	shares := map[string]float64{}
	var total, server float64
	for _, s := range p.samples {
		if len(s.locations) == 0 || valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[valueIdx])
		fn := p.functions[p.locations[s.locations[0]]]
		shares[cpuMetric(funcPackage(str(fn)))] += v
		total += v
		for _, l := range s.labels {
			if str(l.key) == "side" && str(l.str) == "server" {
				server += v
			}
		}
	}
	if total == 0 {
		return nil, 0, errors.New("profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, server / total, nil
}

// cpuMetric maps a Go package to the cpu.* metric its self time counts
// toward.
func cpuMetric(pkg string) string {
	under := func(prefix string) bool { return pkg == prefix || strings.HasPrefix(pkg, prefix+"/") }
	switch {
	case cpuLayers[pkg] != "":
		return cpuLayers[pkg]
	case under("net/http"):
		return "cpu.net_http"
	case under("runtime"), under("internal/runtime"):
		return "cpu.runtime"
	}
	return "cpu.other"
}

// funcPackage returns the import path of a symbol name such as
// "sprinkler/internal/sim.(*Engine).siftDown".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain further paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// profile is the part of a pprof profile.proto message cpuShares needs.
type profile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []sample
	locations   map[uint64]uint64 // location id -> leaf function id
	functions   map[uint64]int64  // function id -> string index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
	labels    []label
}

type label struct{ key, str int64 }

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64]uint64{}, functions: map[uint64]int64{}}
	err := walk(b, func(f field) error {
		switch f.num {
		case profSampleType:
			return walk(f.bytes, func(g field) error {
				if g.num == valueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(g.v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := walk(f.bytes, func(g field) error {
				switch g.num {
				case sampleLocation:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case sampleValue:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				case sampleLabel:
					var l label
					err := walk(g.bytes, func(h field) error {
						switch h.num {
						case labelKey:
							l.key = int64(h.v)
						case labelStr:
							l.str = int64(h.v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id, fn uint64
			first := true
			err := walk(f.bytes, func(g field) error {
				switch g.num {
				case locationID:
					id = g.v
				case locationLine:
					// Inlined frames come first; the first line is the leaf.
					if !first {
						return nil
					}
					first = false
					return walk(g.bytes, func(h field) error {
						if h.num == lineFunction {
							fn = h.v
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walk(f.bytes, func(g field) error {
				switch g.num {
				case functionID:
					id = g.v
				case functionName:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	return p, err
}

// field is one decoded protobuf field: a varint or fixed-width value in v,
// or a length-delimited payload in bytes.
type field struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// uints yields the field's integers, packed or not.
func (f field) uints(yield func(uint64)) error {
	if f.wire != 2 {
		yield(f.v)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

// walk calls fn for every field of the protobuf message in b.
func walk(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
