package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile by layer without any
// dependency beyond the standard library: it decodes just the parts of the
// profile.proto message it needs (samples with their labels, locations,
// functions, strings).

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2
	fSampleLabel    = 3

	fLabelKey = 1
	fLabelStr = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

type profSample struct {
	locs   []uint64
	count  int64
	labels map[int64]int64 // key string index -> value string index
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> name string index
	strs      []string
}

// pbField is one decoded protobuf field: a varint, or the raw bytes of a
// length-delimited field.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case fProfileSample:
			return p.addSample(f.bytes)
		case fProfileLocation:
			return p.addLocation(f.bytes)
		case fProfileFunction:
			var id uint64
			var name int64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case fFunctionID:
					id = g.v
				case fFunctionName:
					name = int64(g.v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileString:
			p.strs = append(p.strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

func (p *profile) addSample(b []byte) error {
	s := profSample{labels: map[int64]int64{}}
	err := pbFields(b, func(f pbField) error {
		switch f.num {
		case fSampleLocation:
			v, err := f.varints()
			s.locs = append(s.locs, v...)
			return err
		case fSampleValue:
			v, err := f.varints()
			if len(v) > 0 && s.count == 0 {
				s.count = int64(v[0]) // the first value is the sample count
			}
			return err
		case fSampleLabel:
			var k, v int64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case fLabelKey:
					k = int64(g.v)
				case fLabelStr:
					v = int64(g.v)
				}
				return nil
			})
			s.labels[k] = v
			return err
		}
		return nil
	})
	p.samples = append(p.samples, s)
	return err
}

func (p *profile) addLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	err := pbFields(b, func(f pbField) error {
		switch f.num {
		case fLocationID:
			id = f.v
		case fLocationLine:
			return pbFields(f.bytes, func(g pbField) error {
				if g.num == fLineFunction {
					funcs = append(funcs, g.v)
				}
				return nil
			})
		}
		return nil
	})
	p.locFuncs[id] = funcs
	return err
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// checkFrame marks the benchmark's own reply verification: its samples are
// benchmark overhead, not work of the layers whose codecs it calls.
const checkFrame = "main.(*checker).verify"

// foldByLayer counts the samples whose label key equals value and folds
// each by the innermost cornflakes/internal/<pkg> frame of its stack.
// Samples with no such frame go to "runtime" when their leaf is in the Go
// runtime and to "other" otherwise; samples under the benchmark's reply
// check go to "bench".
func (p *profile) foldByLayer(key, value string) (map[string]int64, int64) {
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		match := false
		for k, v := range s.labels {
			if p.str(k) == key && p.str(v) == value {
				match = true
			}
		}
		if !match {
			continue
		}
		total += s.count
		out[p.layerOf(s)] += s.count
	}
	return out, total
}

func (p *profile) layerOf(s profSample) string {
	var names []string
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			names = append(names, p.str(p.funcNames[fn]))
		}
	}
	for _, n := range names {
		if n == checkFrame {
			return "bench"
		}
	}
	const prefix = "cornflakes/internal/"
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, prefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				return rest[:i]
			}
			return rest
		}
	}
	if len(names) > 0 && strings.HasPrefix(names[0], "runtime.") {
		return "runtime"
	}
	return "other"
}
