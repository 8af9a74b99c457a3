package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// Layer attribution of a CPU profile. Each sample is charged to the
// innermost frame that belongs to a routesync package, so map, sort and
// encoding/binary time counts toward the layer that called it. The
// benchmark's own frames (package main: the observers) are their own
// "bench" layer. Samples with no such frame go to runtime.gc when a GC
// worker is on the stack and to runtime.sched otherwise (scheduler,
// barrier hand-offs, idle spinning).

// layerShares decodes a runtime/pprof CPU profile and returns each
// layer's share of the sampled CPU time.
func layerShares(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := float64(s.value)
		total += v
		shares[p.layerOf(s.locs)] += v
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (or sample count)
}

type profile struct {
	samples []sample
	locFns  map[uint64][]uint64 // location id → function ids, innermost first
	fnName  map[uint64]int64    // function id → string-table index
	strs    []string
}

func (p *profile) layerOf(locs []uint64) string {
	gc := false
	for _, l := range locs {
		for _, f := range p.locFns[l] {
			name := p.str(p.fnName[f])
			if layer := routesyncLayer(name); layer != "" {
				return layer
			}
			if strings.HasPrefix(name, "runtime.gcBgMarkWorker") || strings.HasPrefix(name, "runtime.bgsweep") || strings.HasPrefix(name, "runtime.bgscavenge") {
				gc = true
			}
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "runtime.sched"
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// routesyncLayer maps a function name such as
// "routesync/internal/des.(*Simulator).siftDown" to its layer ("des"),
// "main.…" to "bench", and anything else to "".
func routesyncLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, "routesync") {
		return ""
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "routesync":
		return "routesync"
	case strings.HasPrefix(pkg, "routesync/internal/"):
		return strings.TrimPrefix(pkg, "routesync/internal/")
	}
	return ""
}

// decodeProfile reads the fields of profile.proto the attribution needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []int64
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return eachUint(v, packed, func(u uint64) { s.locs = append(s.locs, u) })
				case 2:
					return eachUint(v, packed, func(u uint64) { vals = append(vals, int64(u)) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("perfbench: truncated profile")

// eachField walks one protobuf message, passing each field's number and
// either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errors.New("perfbench: unsupported protobuf wire type")
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachUint handles a repeated integer field written either as one varint
// (packed == nil) or as a packed run.
func eachUint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(u)
		packed = packed[n:]
	}
	return nil
}
