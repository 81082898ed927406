package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The CPU fold maps every sample of the traced repetition's profile to
// one layer through a fixed function → layer map, so the layer CPU
// times sum to the profile total.
const (
	layerAssemble = "spice.assemble_cpu_s"
	layerMOSFET   = "netlist.mosfet_cpu_s"
	layerFactor   = "solver.factor_cpu_s"
	layerSolve    = "solver.solve_cpu_s"
	layerDigital  = "digital.cpu_s"
	layerDefect   = "defectsim.cpu_s"
	layerGC       = "runtime.gc_cpu_s"
	layerOther    = "other.cpu_s"
	// profileTotal keys the profile's total CPU in a fold.
	profileTotal = "profile.cpu_s"
)

// foldLayers lists the fold's layers.
var foldLayers = []string{
	layerAssemble, layerMOSFET, layerFactor, layerSolve,
	layerDigital, layerDefect, layerGC, layerOther,
}

// gcRoots are runtime functions whose presence anywhere on a stack makes
// the sample garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.gcStart", "runtime.markroot", "runtime.scanobject",
}

// layerOf maps a stack (leaf first) to its layer. A sample under a GC
// root is GC. Otherwise transparent frames pass their time to the first
// calling frame outside them, and that frame's function decides the
// layer; anything the map does not name is other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return layerGC
			}
		}
	}
	for _, fn := range stack {
		if transparent(fn) {
			continue
		}
		return layerOfFunc(fn)
	}
	return layerOther
}

// matrixStorage are the solver's matrix and pattern storage methods.
// They run on behalf of whoever fills or copies the matrix — zeroing
// and stamping the MNA matrix is assembly, not factorisation.
var matrixStorage = map[string]bool{
	"repro/internal/solver.(*Matrix).Zero":   true,
	"repro/internal/solver.(*Matrix).At":     true,
	"repro/internal/solver.(*Matrix).Set":    true,
	"repro/internal/solver.(*Matrix).Add":    true,
	"repro/internal/solver.(*Matrix).Clone":  true,
	"repro/internal/solver.(*CMatrix).Zero":  true,
	"repro/internal/solver.(*CMatrix).At":    true,
	"repro/internal/solver.(*CMatrix).Add":   true,
	"repro/internal/solver.(*Pattern).Mark":  true,
	"repro/internal/solver.(*Pattern).Has":   true,
	"repro/internal/solver.(*Pattern).Count": true,
}

// transparent reports whether a frame passes its time to its caller:
// math.* and runtime.* functions and the matrix storage methods.
func transparent(fn string) bool {
	return strings.HasPrefix(fn, "math.") || strings.HasPrefix(fn, "runtime.") || matrixStorage[fn]
}

// layerOfFunc is the fixed function → layer map.
func layerOfFunc(fn string) string {
	const mod = "repro/internal/"
	if !strings.HasPrefix(fn, mod) {
		return layerOther
	}
	pkg, name, _ := strings.Cut(fn[len(mod):], ".")
	switch pkg {
	case "netlist":
		// Device evaluation is the MOSFET model; everything else in
		// netlist is stamping into the MNA matrix.
		if strings.Contains(name, "MOSFET") || strings.Contains(name, "thMemo") || strings.Contains(name, "mosParams") {
			return layerMOSFET
		}
		return layerAssemble
	case "spice":
		if strings.Contains(name, "assemble") || strings.Contains(name, "beginSolve") {
			return layerAssemble
		}
		return layerOther
	case "solver":
		if strings.Contains(name, "Solve") || strings.Contains(name, "correct") || strings.Contains(name, "residual") {
			return layerSolve
		}
		return layerFactor
	case "digital", "adc":
		// The behavioural ADC's missing-code test stays under one
		// profile sample a run, so it shares the digital layer.
		return layerDigital
	case "defectsim", "geom", "layout", "process":
		return layerDefect
	}
	return layerOther
}

// sample is one profile sample: its stack (leaf first) and CPU time.
type sample struct {
	stack []string
	ns    int64
}

// fold sums the samples' CPU seconds per layer; profileTotal holds the
// sum over all samples.
func fold(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, l := range foldLayers {
		out[l] = 0
	}
	var total int64
	perLayer := map[string]int64{}
	for _, s := range samples {
		perLayer[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	for l, ns := range perLayer {
		out[l] = float64(ns) / 1e9
	}
	out[profileTotal] = float64(total) / 1e9
	return out
}

func foldProfileFile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return fold(samples), nil
}

// parseProfile decodes a gzipped pprof CPU profile (the protobuf
// runtime/pprof writes) into samples with symbolised stacks. Only the
// fields the fold needs are read: samples (location ids, values),
// locations (lines → function ids), functions (name) and the string
// table. The CPU time is the sample value of type "cpu".
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		strs      []string
		typeIdx   []int64 // sample_type string indexes
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: {location_id=1, value=2}
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id=1, line=4 {function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
		case 5: // function: {id=1, name=2}
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile sample lacks the cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			// A location's lines run from the innermost inlined
			// function outwards, so the stack stays leaf first.
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		out = append(out, sample{stack: stack, ns: s.values[cpu]})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
// Fixed-width fields are skipped.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
