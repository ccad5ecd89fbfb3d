package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzip-compressed profile.proto that runtime/pprof writes,
// keeping only what layer attribution needs, so the benchmark depends on
// the standard library alone.

// stackSample is one profile sample: its call stack as function names,
// leaf first (inlined frames included), and its CPU cost.
type stackSample struct {
	stack   []string
	samples int64
	nanos   int64
}

var errProto = errors.New("malformed profile")

// readProfile decodes a gzip-compressed CPU profile.
func readProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(data)
}

// pbuf walks protobuf wire-format fields.
type pbuf []byte

func (p *pbuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(*p)
	if n <= 0 {
		return 0, errProto
	}
	*p = (*p)[n:]
	return v, nil
}

// next reads one field: its number, wire type, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped.
func (p *pbuf) next() (field int, wire int, v uint64, b []byte, err error) {
	key, err := p.uvarint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	skip := 0
	switch wire {
	case 0:
		v, err = p.uvarint()
		return field, wire, v, nil, err
	case 1:
		skip = 8
	case 2:
		n, err := p.uvarint()
		if err != nil || n > uint64(len(*p)) {
			return 0, 0, 0, nil, errProto
		}
		b = (*p)[:n]
		*p = (*p)[n:]
		return field, wire, 0, b, nil
	case 5:
		skip = 4
	default:
		return 0, 0, 0, nil, errProto
	}
	if skip > len(*p) {
		return 0, 0, 0, nil, errProto
	}
	*p = (*p)[skip:]
	return field, wire, 0, nil, nil
}

// ints appends the values of a repeated integer field, which encoders may
// write packed (wire type 2) or one per field (wire type 0).
func ints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf(b)
	for len(q) > 0 {
		x, err := q.uvarint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// fields calls fn for every field of a message.
func fields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	p := pbuf(b)
	for len(p) > 0 {
		f, w, v, sub, err := p.next()
		if err != nil {
			return err
		}
		if err := fn(f, w, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// decodeProfile decodes an uncompressed profile.proto message. Field
// numbers follow github.com/google/pprof/proto/profile.proto.
func decodeProfile(data []byte) ([]stackSample, error) {
	var (
		strs      []string
		types     []uint64              // sample_type[i].type, a string index
		funcName  = map[uint64]uint64{} // function id -> name string index
		locFuncs  = map[uint64][]uint64{}
		rawStacks [][]uint64 // location ids per sample, leaf first
		rawValues [][]uint64
	)
	err := fields(data, func(f, w int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type: ValueType{type = 1, unit = 2}
			return fields(b, func(f, w int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample: Sample{location_id = 1, value = 2}
			var locs, vals []uint64
			err := fields(b, func(f, w int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					locs, err = ints(locs, w, v, b)
				case 2:
					vals, err = ints(vals, w, v, b)
				}
				return err
			})
			rawStacks, rawValues = append(rawStacks, locs), append(rawValues, vals)
			return err
		case 4: // location: Location{id = 1, line = 4 (Line{function_id = 1})}
			var id uint64
			var fns []uint64
			err := fields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := fields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range: %w", i, errProto)
		}
		return strs[i], nil
	}
	// Go CPU profiles carry [samples/count, cpu/nanoseconds].
	countIdx, nanosIdx := 0, 1
	for i, t := range types {
		switch name, _ := str(t); name {
		case "samples":
			countIdx = i
		case "cpu":
			nanosIdx = i
		}
	}
	out := make([]stackSample, len(rawStacks))
	for i, locs := range rawStacks {
		vals := rawValues[i]
		if len(vals) <= countIdx || len(vals) <= nanosIdx {
			return nil, fmt.Errorf("profile: sample %d has %d values: %w", i, len(vals), errProto)
		}
		s := stackSample{samples: int64(vals[countIdx]), nanos: int64(vals[nanosIdx])}
		for _, loc := range locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location %d: %w", loc, errProto)
			}
			for _, fn := range fns {
				idx, ok := funcName[fn]
				if !ok {
					return nil, fmt.Errorf("profile: unknown function %d: %w", fn, errProto)
				}
				name, err := str(idx)
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		out[i] = s
	}
	return out, nil
}

// layerCost is the CPU charged to one layer.
type layerCost struct {
	Samples int64 `json:"samples"`
	Nanos   int64 `json:"nanos"`
}

// attribute charges every sample to one layer (see layerOf).
func attribute(samples []stackSample) map[string]layerCost {
	out := map[string]layerCost{}
	for _, s := range samples {
		l := layerOf(s.stack)
		c := out[l]
		c.Samples += s.samples
		c.Nanos += s.nanos
		out[l] = c
	}
	return out
}

const repoPrefix = "apenetsim/internal/"

// repoModule returns the repository module a function belongs to, or ""
// for standard-library and runtime code. The benchmark's own main
// package is the apeperf module.
func repoModule(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "apeperf"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// Runtime frames that mark what a runtime leaf is doing, by function name
// prefix. A stack is checked against gcFrames, then schedFrames, then
// allocFrames: an allocation that assists the collector is GC work, a
// goroutine creation that allocates is scheduling.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit",
		"runtime.(*mheap).reclaim", "runtime.(*sweepLocked)", "runtime.wbBuf", "runtime._GC",
	}
	schedFrames = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.park_m", "runtime.schedule",
		"runtime.findRunnable", "runtime.execute", "runtime.mcall", "runtime.gosched",
		"runtime.goschedImpl", "runtime.newproc", "runtime.goexit0", "runtime.goexit1",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.handoffp",
		"runtime.semacquire", "runtime.semrelease", "runtime.notesleep", "runtime.notewakeup",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.mapassign", "runtime.rawstring",
		"runtime.slicebytetostring", "runtime.convT", "runtime.concatstring",
	}
)

func hasFrame(stack, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// layerOf names the layer a sample is charged to: the repository module
// of its leaf frame; for a runtime leaf, go.gc, go.sched or go.alloc when
// its stack shows GC, scheduling or allocation work; otherwise the first
// repository module on the stack (a memmove or map read is charged to the
// code that asked for it); go.other when no repository frame is found.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "go.other"
	}
	if m := repoModule(stack[0]); m != "" {
		return m
	}
	if isRuntime(stack[0]) {
		switch {
		case hasFrame(stack, gcFrames):
			return "go.gc"
		case hasFrame(stack, schedFrames):
			return "go.sched"
		case hasFrame(stack, allocFrames):
			return "go.alloc"
		}
	}
	for _, fn := range stack[1:] {
		if m := repoModule(fn); m != "" {
			return m
		}
	}
	return "go.other"
}
