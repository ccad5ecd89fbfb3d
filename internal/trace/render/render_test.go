package render

import (
	"bytes"
	"encoding/xml"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apenetsim/internal/sim"
	"apenetsim/internal/timeseries"
	"apenetsim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden render fixtures")

// ev builds one capture event.
func ev(t0, t1 sim.Time, comp, kind string, op uint64, bytes int64, note string) trace.Event {
	return trace.Event{T: t0, Dur: t1.Sub(t0), Comp: comp, Kind: kind, Op: op, Bytes: bytes, Note: note}
}

// fixture is a tiny 2x2x1 capture: one minimal-staircase PUT, one
// fault-detoured PUT (dev=1/fault=1 flags, same hop count — the
// wraparound case hop counting cannot see), and a link_stats snapshot.
func fixture() *trace.File {
	return &trace.File{
		SchemaVersion: trace.FileSchemaVersion,
		Source:        "test",
		Label:         "fixture",
		Events: []trace.Event{
			{T: 0, Comp: "coll", Kind: "world", Bytes: 4, Note: "2x2x1"},
			ev(1000, 2000, "ape0.op", "submit", 1, 4096, "kind=put src=0 dst=3"),
			ev(2000, 3000, "ape0.op", "txq", 1, 4096, "leg=put"),
			ev(3000, 4000, "wire.(0,0,0)X+", "hop", 1, 4096, "leg=put seq=0 from=0 to=1"),
			ev(4000, 5000, "wire.(1,0,0)Y+", "hop", 1, 4096, "leg=put seq=0 from=1 to=3"),
			ev(5000, 5500, "ape3.op", "deliver", 1, 4096, "src=0"),
			// Detour flagged by the router, not by hop count.
			ev(6000, 7000, "wire.(0,0,0)Y+", "hop", 2, 4096, "leg=put seq=0 from=0 to=2 dev=1 fault=1"),
			ev(7000, 8000, "wire.(0,1,0)X+", "hop", 2, 4096, "leg=put seq=0 from=2 to=3"),
			{T: 9000, Comp: "torus.(0,0,0)X+", Kind: "link_stats", Bytes: 4096, Note: "packets=1 util=12.5% peak_backlog=0s"},
		},
	}
}

// wellFormedSVGs XML-parses every <svg>...</svg> block in page.
func wellFormedSVGs(t *testing.T, page []byte) int {
	t.Helper()
	n := 0
	rest := page
	for {
		i := bytes.Index(rest, []byte("<svg"))
		if i < 0 {
			break
		}
		j := bytes.Index(rest[i:], []byte("</svg>"))
		if j < 0 {
			t.Fatal("unterminated <svg> block")
		}
		doc := rest[i : i+j+len("</svg>")]
		dec := xml.NewDecoder(bytes.NewReader(doc))
		for {
			_, err := dec.Token()
			if err != nil {
				if err.Error() == "EOF" {
					break
				}
				t.Fatalf("SVG %d is not well-formed XML: %v\n%s", n, err, doc)
			}
		}
		n++
		rest = rest[i+j:]
	}
	return n
}

// telemetryFixture is fixture() plus sampled series: two shard
// occupancy lanes and three probe series across two units, so the
// telemetry section renders lanes plus one chart per unit.
func telemetryFixture() *trace.File {
	f := fixture()
	f.Series = []timeseries.Series{
		{Name: "links.util.max", Unit: "frac", Samples: []timeseries.Sample{{T: 2000, V: 0.9}, {T: 4000, V: 0.5}, {T: 8000, V: 0.1}}},
		{Name: "links.util.mean", Unit: "frac", Samples: []timeseries.Sample{{T: 2000, V: 0.4}, {T: 4000, V: 0.25}, {T: 8000, V: 0.05}}},
		{Name: "ops.outstanding", Unit: "ops", Samples: []timeseries.Sample{{T: 2000, V: 3}, {T: 4000, V: 1}, {T: 8000, V: 0}}},
		{Name: "shard0.busy", Unit: "frac", Samples: []timeseries.Sample{{T: 2000, V: 1}, {T: 4000, V: 0.5}, {T: 8000, V: 0}}},
		{Name: "shard1.busy", Unit: "frac", Samples: []timeseries.Sample{{T: 2000, V: 0.25}, {T: 4000, V: 1}, {T: 8000, V: 0.75}}},
	}
	return f
}

// must fails t when a render returns an error: must(t)(Page(f)).
func must(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// mustParse is parse for captures the test knows are well-formed.
func mustParse(t *testing.T, f *trace.File) *capture {
	t.Helper()
	c, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace/render -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("render drifted from golden %s (re-run with -update if intentional); got %d bytes, want %d",
			golden, len(got), len(want))
	}
}

func TestPageMatchesGolden(t *testing.T) {
	checkGolden(t, "fixture.html", must(t)(Page(fixture())))
}

func TestTelemetryPageMatchesGolden(t *testing.T) {
	checkGolden(t, "telemetry.html", must(t)(Page(telemetryFixture())))
}

func TestRenderIsByteStable(t *testing.T) {
	f := fixture()
	if !bytes.Equal(must(t)(Page(f)), must(t)(Page(f))) {
		t.Fatal("two renders of the same capture differ")
	}
	if !bytes.Equal(must(t)(TimelineSVG(f)), must(t)(TimelineSVG(f))) || !bytes.Equal(must(t)(SpaceTimeSVG(f)), must(t)(SpaceTimeSVG(f))) {
		t.Fatal("SVG renders are not deterministic")
	}
	tf := telemetryFixture()
	if !bytes.Equal(must(t)(Page(tf)), must(t)(Page(tf))) {
		t.Fatal("two telemetry renders of the same capture differ")
	}
	if !bytes.Equal(ShardLanesSVG(tf), ShardLanesSVG(tf)) {
		t.Fatal("shard lane render is not deterministic")
	}
}

func TestShardLanesOnlyForShardedCaptures(t *testing.T) {
	if svg := ShardLanesSVG(fixture()); svg != nil {
		t.Fatalf("serial capture grew shard lanes:\n%s", svg)
	}
	page := string(must(t)(Page(telemetryFixture())))
	if !strings.Contains(page, "Run telemetry") || !strings.Contains(page, "shard occupancy") {
		t.Fatal("telemetry section missing from sharded page")
	}
	if !strings.Contains(page, "links.util.mean") || !strings.Contains(page, "ops.outstanding") {
		t.Fatal("telemetry charts missing series labels")
	}
}

func TestLineChartSVG(t *testing.T) {
	series := []ChartSeries{
		{Label: "a", Pts: []ChartPoint{{X: 0, Y: 1}, {X: 10, Y: 3}}},
		{Label: "b", Step: true, Pts: []ChartPoint{{X: 0, Y: 2}, {X: 10, Y: 0}}},
		{Label: "empty"}, // skipped
	}
	svg := LineChartSVG("test chart", "GB/s", series, []ChartTick{{X: 0, Label: "0"}, {X: 10, Label: "ten"}})
	if n := wellFormedSVGs(t, svg); n != 1 {
		t.Fatalf("chart = %d SVGs, want 1", n)
	}
	s := string(svg)
	for _, want := range []string{"test chart", "GB/s", ">a<", ">b<", ">ten<"} {
		if !strings.Contains(s, want) {
			t.Fatalf("chart missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "empty") {
		t.Fatal("pointless series not skipped")
	}
	if !bytes.Equal(svg, LineChartSVG("test chart", "GB/s", series, []ChartTick{{X: 0, Label: "0"}, {X: 10, Label: "ten"}})) {
		t.Fatal("chart render is not deterministic")
	}
	// Degenerate inputs still produce a well-formed document.
	if n := wellFormedSVGs(t, LineChartSVG("empty", "", nil, nil)); n != 1 {
		t.Fatalf("empty chart = %d SVGs, want 1", n)
	}
	one := []ChartSeries{{Label: "pt", Pts: []ChartPoint{{X: 5, Y: 5}}}}
	if n := wellFormedSVGs(t, LineChartSVG("single", "", one, nil)); n != 1 {
		t.Fatalf("single-point chart = %d SVGs, want 1", n)
	}
}

func TestSVGsAreWellFormedXML(t *testing.T) {
	if n := wellFormedSVGs(t, must(t)(Page(fixture()))); n != 2 {
		t.Fatalf("page embeds %d SVGs, want timeline + space-time", n)
	}
	// The telemetry fixture adds shard lanes + one chart per unit (frac,
	// ops) on top of the timeline and space-time views.
	if n := wellFormedSVGs(t, must(t)(Page(telemetryFixture()))); n != 5 {
		t.Fatalf("telemetry page embeds %d SVGs, want timeline + space-time + lanes + 2 charts", n)
	}
	// Both standalone renderers emit a single well-formed document even
	// for an empty capture.
	empty := &trace.File{SchemaVersion: trace.FileSchemaVersion}
	if n := wellFormedSVGs(t, must(t)(TimelineSVG(empty))); n != 1 {
		t.Fatalf("empty timeline = %d SVGs", n)
	}
	if n := wellFormedSVGs(t, must(t)(SpaceTimeSVG(empty))); n != 1 {
		t.Fatalf("empty space-time = %d SVGs", n)
	}
}

func TestDetourDetection(t *testing.T) {
	c := mustParse(t, fixture())
	trs := c.tracks()
	if len(trs) != 2 {
		t.Fatalf("tracks = %d, want 2", len(trs))
	}
	if trs[0].detour {
		t.Fatal("minimal staircase track marked as detour")
	}
	if !trs[1].detour {
		t.Fatal("router-flagged detour not marked (dev=1 ignored)")
	}
	svg := string(must(t)(SpaceTimeSVG(fixture())))
	if !strings.Contains(svg, "stroke-dasharray") || !strings.Contains(svg, "1 detoured") {
		t.Fatalf("detour not drawn dashed/legended:\n%s", svg)
	}

	// Hop-count detours are still caught without router flags: 2 hops on
	// a 1-hop path.
	long := &trace.File{SchemaVersion: trace.FileSchemaVersion, Dims: "4x2x2", Events: []trace.Event{
		ev(1000, 2000, "wire.(0,0,0)Y+", "hop", 3, 64, "leg=put seq=0 from=0 to=4"),
		ev(2000, 3000, "wire.(0,1,0)Y-", "hop", 3, 64, "leg=put seq=0 from=4 to=0"),
		ev(3000, 4000, "wire.(0,0,0)X+", "hop", 3, 64, "leg=put seq=0 from=0 to=1"),
	}}
	lc := mustParse(t, long)
	ltr := lc.tracks()
	if len(ltr) != 1 || !ltr[0].detour {
		t.Fatalf("hop-count detour missed: %+v", ltr)
	}
}

func TestTracksSplitOnDiscontinuity(t *testing.T) {
	// Two sub-worlds re-using (op, seq, leg) keys: the second packet
	// starts at a rank the first never reached and earlier in time, so it
	// must become its own polyline instead of a zig-zag artifact.
	f := &trace.File{SchemaVersion: trace.FileSchemaVersion, Events: []trace.Event{
		ev(5000, 6000, "wire.(0,0,0)X+", "hop", 1, 64, "leg=put seq=0 from=0 to=1"),
		ev(1000, 2000, "wire.(2,0,0)X+", "hop", 1, 64, "leg=put seq=0 from=2 to=3"),
	}}
	trs := mustParse(t, f).tracks()
	if len(trs) != 2 {
		t.Fatalf("overlaid sub-world hops folded into %d tracks, want 2", len(trs))
	}
}

// TestMalformedCapturesError: hop spans before time 0 and hop ranks
// outside the capture's torus are malformed input, reported as errors by
// every renderer rather than as index or torus panics.
func TestMalformedCapturesError(t *testing.T) {
	for name, f := range map[string]*trace.File{
		"hop before time 0": {SchemaVersion: trace.FileSchemaVersion, Dims: "2x1x1", Events: []trace.Event{
			ev(-5000, 5000, "wire.(0,0,0)X+", "hop", 1, 0, "leg=put seq=0 from=0 to=1"),
		}},
		"rank outside dims": {SchemaVersion: trace.FileSchemaVersion, Dims: "2x1x1", Events: []trace.Event{
			ev(1000, 2000, "wire.(0,0,0)X+", "hop", 1, 0, "leg=put seq=0 from=-7 to=1"),
		}},
		"rank outside world dims": {SchemaVersion: trace.FileSchemaVersion, Events: []trace.Event{
			ev(1000, 2000, "wire.(0,0,0)X+", "hop", 1, 0, "leg=put seq=0 from=0 to=2"),
			{T: 0, Comp: "coll", Kind: "world", Note: "2x1x1"},
		}},
	} {
		for render, fn := range map[string]func(*trace.File) ([]byte, error){
			"Page": Page, "TimelineSVG": TimelineSVG, "SpaceTimeSVG": SpaceTimeSVG,
		} {
			if out, err := fn(f); err == nil {
				t.Errorf("%s: %s rendered %d bytes, want an error", name, render, len(out))
			}
		}
	}
}

// FuzzPage: whatever bytes a capture file holds, trace.ReadFile rejects
// them or render.Page returns — a page or an error — without panicking.
// The committed corpus holds a capture with a hop span before time 0, one
// with a hop rank outside its dims, and a legacy bare-array capture.
func FuzzPage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := trace.ReadFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		Page(tf)
	})
}
