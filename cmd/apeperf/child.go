package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"
)

// runChild performs one run of w in this process and writes its sample to
// out as JSON. With traced set, a CPU profile covers the workload call and
// is attributed to layers here, so only the totals cross the pipe.
func runChild(w workload, root string, seed int64, traced bool, out io.Writer) error {
	s := newSample()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("starting the CPU profile: %w", err)
		}
	}
	start := time.Now()
	check := w.run(seed, s)
	s.WallS = time.Since(start).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	s.Values["go.mallocs"] = float64(after.Mallocs - before.Mallocs)
	s.Values["go.alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / mib
	s.Values["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	s.Values["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if traced {
		samples, err := readProfile(&prof)
		if err != nil {
			return err
		}
		s.Profile = attribute(samples)
	}
	if check != nil {
		check(root)
	}
	return json.NewEncoder(out).Encode(s)
}
