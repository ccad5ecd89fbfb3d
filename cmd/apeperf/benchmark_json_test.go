package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkFile is the layout of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) (benchmarkFile, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f, root
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	f, _ := loadBenchmarkFile(t)
	var names []string
	for _, w := range defaultWorkloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", listed, names)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, command %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, command %+v", f.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(f.Paths, []string{"cmd/apeperf"}) {
		t.Errorf("paths = %v", f.Paths)
	}

	// The result line carries exactly the listed metrics, with their units.
	r := &workloadResult{Name: "w", Metrics: map[string]summary{"wall_s": {Median: 2}, "bench.fig4_s": {Median: 1}},
		Traced: map[string]float64{"sim.cpu_share": 0.3}}
	for traced, want := range map[bool][]metric{false: f.EndToEnd, true: f.PerLayer} {
		line := resultLine([]*workloadResult{r}, traced)
		var got []string
		for name, v := range line.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		var wantNames []string
		for _, m := range want {
			wantNames = append(wantNames, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(wantNames)
		if !reflect.DeepEqual(got, wantNames) {
			t.Errorf("traced=%v result line metrics %v, want %v", traced, got, wantNames)
		}
	}
}

// Every internal package is a layer CPU samples can be charged to.
func TestLayersCoverInternalPackages(t *testing.T) {
	_, root := loadBenchmarkFile(t)
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range entries {
		if e.IsDir() && !known[e.Name()] {
			t.Errorf("internal/%s is not in layers", e.Name())
		}
	}
}
