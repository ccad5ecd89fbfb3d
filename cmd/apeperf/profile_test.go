package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"testing"
)

// testdata/cpu.pprof is a runtime/pprof CPU profile of a 4x4x4 halo and
// allreduce loop: 35 samples of 10 ms, three of them with leaf
// pcie.(*Channel).findSlot (as `go tool pprof -traces` lists them).
func TestReadProfileTestdata(t *testing.T) {
	f, err := os.Open("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := readProfile(f)
	if err != nil {
		t.Fatal(err)
	}
	var count, nanos, findSlot int64
	for _, s := range samples {
		count += s.samples
		nanos += s.nanos
		if len(s.stack) > 0 && s.stack[0] == "apenetsim/internal/pcie.(*Channel).findSlot" {
			findSlot += s.samples
		}
	}
	if count != 35 || nanos != 35*10_000_000 || findSlot != 3 {
		t.Errorf("read %d samples, %d ns, %d findSlot leaves; want 35, 350 ms, 3", count, nanos, findSlot)
	}
	costs := attribute(samples)
	var total int64
	for _, c := range costs {
		total += c.Samples
	}
	if total != count {
		t.Errorf("attribution kept %d of %d samples", total, count)
	}
	if costs["pcie"].Samples < 9 || costs["go.other"].Samples*20 > total {
		t.Errorf("attribution %+v: want pcie >= 9 samples and go.other <= 5%%", costs)
	}
}

func TestReadProfileRejectsMalformed(t *testing.T) {
	b, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeProfile(raw.Bytes()[:raw.Len()/2]); !errors.Is(err, errProto) {
		t.Errorf("truncated profile: err = %v, want errProto", err)
	}
	if _, err := readProfile(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("a non-gzip profile was accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"apenetsim/internal/sim.(*Engine).Step", "main.main"}, "sim"},
		{[]string{"apenetsim/internal/trace/render.Page"}, "trace"},
		{[]string{"main.runWorld.func1", "runtime.goexit"}, "apeperf"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc", "apenetsim/internal/core.(*Card).Submit"}, "go.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "go.sched"},
		{[]string{"runtime.memmove", "runtime.chanrecv", "runtime.chanrecv1", "apenetsim/internal/sim.(*Proc).block"}, "go.sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "apenetsim/internal/pcie.(*Channel).reserve"}, "go.alloc"},
		{[]string{"runtime.memmove", "apenetsim/internal/core.(*Card).rxDeliver", "runtime.goexit"}, "core"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1", "apenetsim/internal/coll.(*Rank).get"}, "coll"},
		{[]string{"sort.insertionSort", "sort.Sort", "apenetsim/internal/graph.Kronecker"}, "graph"},
		{[]string{"runtime.usleep", "runtime.sysmon", "runtime.mstart"}, "go.other"},
		{nil, "go.other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
