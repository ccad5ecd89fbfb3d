package render

// Byte-stable SVG charts for sampled series: a generic line/step chart
// (shared with cmd/apesweep for its cross-cell metric plots) and the
// per-shard occupancy lanes drawn from timeseries shard<i>.busy series.
// Same discipline as the rest of the package: sorted iteration, fnum
// fixed-precision coordinates, no clock reads.

import (
	"bytes"
	"fmt"
	"html"
	"sort"
	"strings"

	"apenetsim/internal/sim"
	"apenetsim/internal/timeseries"
	"apenetsim/internal/trace"
)

const (
	chartH     = 240
	chartTop   = 30 // title row
	chartBot   = 20 // x tick labels
	chartPlotH = chartH - chartTop - chartBot
)

// chartPalette colors chart series by index, wrapping around.
var chartPalette = []string{
	"#2b6cb0", "#c05621", "#2f855a", "#6b46c1",
	"#b83280", "#008080", "#b7791f", "#e53e3e",
}

// ChartPoint is one (x, y) sample of a chart series.
type ChartPoint struct{ X, Y float64 }

// ChartSeries is one labeled line of a chart.
type ChartSeries struct {
	Label string
	Step  bool // hold each value until the next point instead of interpolating
	Pts   []ChartPoint
}

// ChartTick labels one x-axis position.
type ChartTick struct {
	X     float64
	Label string
}

// LineChartSVG renders labeled series as one byte-stable SVG line chart:
// shared x/y scales across series, a zero-anchored y axis with min/max
// labels in yUnit, a legend, and optional x-axis tick labels. The result
// is a standalone, well-formed XML document; series with fewer than one
// point are skipped.
func LineChartSVG(title, yUnit string, series []ChartSeries, xticks []ChartTick) []byte {
	var kept []ChartSeries
	for _, s := range series {
		if len(s.Pts) > 0 {
			kept = append(kept, s)
		}
	}
	xmin, xmax := 0.0, 1.0
	ymin, ymax := 0.0, 0.0
	first := true
	for _, s := range kept {
		for _, p := range s.Pts {
			if first {
				xmin, xmax = p.X, p.X
				first = false
			}
			if p.X < xmin {
				xmin = p.X
			}
			if p.X > xmax {
				xmax = p.X
			}
			if p.Y < ymin {
				ymin = p.Y
			}
			if p.Y > ymax {
				ymax = p.Y
			}
		}
	}
	if xmax <= xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}
	plotW := float64(svgW - labelW - 10)
	// Each product is rounded by an explicit float64 conversion, which
	// keeps it out of a fused multiply-add: the coordinates then print
	// alike on every architecture.
	xOf := func(x float64) string {
		return fnum(float64(labelW) + float64((x-xmin)/(xmax-xmin)*plotW))
	}
	yOf := func(y float64) string {
		return fnum(float64(chartTop) + float64((1-(y-ymin)/(ymax-ymin))*float64(chartPlotH)))
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n", svgW, chartH)
	fmt.Fprintf(&b, `<text x="4" y="12">%s</text>`+"\n", html.EscapeString(title))
	// Legend, right-aligned on the title row.
	lx := svgW - 10
	for i := len(kept) - 1; i >= 0; i-- {
		s := kept[i]
		fmt.Fprintf(&b, `<text x="%d" y="12" fill="%s" text-anchor="end">%s</text>`+"\n",
			lx, chartPalette[i%len(chartPalette)], html.EscapeString(s.Label))
		lx -= 8*len(s.Label) + 16
	}
	// Horizontal gridlines with y labels at min, mid, max.
	for _, frac := range []float64{0, 0.5, 1} {
		y := ymin + float64(frac*(ymax-ymin))
		fmt.Fprintf(&b, `<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#eee"/>`+"\n", labelW, yOf(y), svgW-10, yOf(y))
		label := fnum(y)
		if yUnit != "" {
			label += " " + yUnit
		}
		fmt.Fprintf(&b, `<text x="4" y="%s" fill="#888">%s</text>`+"\n", yOf(y), html.EscapeString(label))
	}
	for _, tk := range xticks {
		fmt.Fprintf(&b, `<text x="%s" y="%d" fill="#888" text-anchor="middle">%s</text>`+"\n",
			xOf(tk.X), chartH-6, html.EscapeString(tk.Label))
	}
	for i, s := range kept {
		color := chartPalette[i%len(chartPalette)]
		var pts []string
		var prev ChartPoint
		for j, p := range s.Pts {
			if s.Step && j > 0 {
				pts = append(pts, xOf(p.X)+","+yOf(prev.Y))
			}
			pts = append(pts, xOf(p.X)+","+yOf(p.Y))
			prev = p
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
			strings.Join(pts, " "), color)
		if len(s.Pts) == 1 {
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2" fill="%s"/>`+"\n", xOf(s.Pts[0].X), yOf(s.Pts[0].Y), color)
		}
	}
	b.WriteString("</svg>\n")
	return b.Bytes()
}

// isShardSeries reports whether a telemetry series is a per-shard
// occupancy series ("shard<i>.busy").
func isShardSeries(name string) bool {
	return strings.HasPrefix(name, "shard") && strings.HasSuffix(name, ".busy")
}

// ShardLanesSVG renders the per-shard occupancy lanes: one lane per
// shard<i>.busy series, each sampling interval shaded by the shard's
// busy-round fraction over it. Returns nil when the capture has no shard
// series (runs of one shard).
func ShardLanesSVG(f *trace.File) []byte {
	var lanes []timeseries.Series
	var maxT sim.Time
	for _, s := range f.Series {
		if !isShardSeries(s.Name) || len(s.Samples) == 0 {
			continue
		}
		lanes = append(lanes, s)
		if t := s.Samples[len(s.Samples)-1].T; t > maxT {
			maxT = t
		}
	}
	if len(lanes) == 0 {
		return nil
	}
	sort.Slice(lanes, func(i, j int) bool {
		// shard2 before shard10: numeric order via padded compare.
		a, b := lanes[i].Name, lanes[j].Name
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	if maxT <= 0 {
		maxT = 1
	}
	plotW := float64(svgW - labelW - 10)
	h := len(lanes)*(laneH+laneGap) + 40
	var b bytes.Buffer
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n", svgW, h)
	fmt.Fprintf(&b, `<text x="4" y="12">shard occupancy · %d shards · span %s</text>`+"\n",
		len(lanes), html.EscapeString(sim.Duration(maxT).String()))
	y := 30
	for _, l := range lanes {
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", y+laneH-3, html.EscapeString(strings.TrimSuffix(l.Name, ".busy")))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%s" height="%d" fill="#f2f2f2"/>`+"\n", labelW, y, fnum(plotW), laneH)
		var prev sim.Time
		for _, p := range l.Samples {
			// Each sample covers the interval since the previous one.
			// The products are rounded before the sums, never fused.
			x0 := float64(labelW) + float64(float64(prev)/float64(maxT)*plotW)
			x1 := float64(labelW) + float64(float64(p.T)/float64(maxT)*plotW)
			frac := p.V
			if frac > 1 {
				frac = 1
			}
			if x1 > x0 && frac > 0 {
				fmt.Fprintf(&b, `<rect x="%s" y="%d" width="%s" height="%d" fill="#2f855a" fill-opacity="%s"/>`+"\n",
					fnum(x0), y, fnum(x1-x0), laneH, fnum(frac))
			}
			prev = p.T
		}
		y += laneH + laneGap
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#888">0</text><text x="%d" y="%d" fill="#888" text-anchor="end">%s</text>`+"\n",
		labelW, y+12, svgW-10, y+12, html.EscapeString(sim.Duration(maxT).String()))
	b.WriteString("</svg>\n")
	return b.Bytes()
}

// seriesCharts renders the capture's non-shard telemetry series as line
// charts, one per unit (series sharing a unit share axes), units in
// sorted order. Series are downsampled to the chart's bucket resolution
// by nearest-sample selection.
func seriesCharts(f *trace.File) [][]byte {
	byUnit := map[string][]timeseries.Series{}
	var units []string
	for _, s := range f.Series {
		if isShardSeries(s.Name) || len(s.Samples) == 0 {
			continue
		}
		if _, ok := byUnit[s.Unit]; !ok {
			units = append(units, s.Unit)
		}
		byUnit[s.Unit] = append(byUnit[s.Unit], s)
	}
	sort.Strings(units)
	var out [][]byte
	for _, u := range units {
		group := byUnit[u]
		sort.Slice(group, func(i, j int) bool { return group[i].Name < group[j].Name })
		var cs []ChartSeries
		var maxT sim.Time
		for _, s := range group {
			ds := timeseries.Downsample(s, buckets)
			one := ChartSeries{Label: s.Name}
			for _, p := range ds.Samples {
				one.Pts = append(one.Pts, ChartPoint{X: float64(p.T), Y: p.V})
			}
			cs = append(cs, one)
			if t := s.Samples[len(s.Samples)-1].T; t > maxT {
				maxT = t
			}
		}
		names := make([]string, len(group))
		for i, s := range group {
			names[i] = s.Name
		}
		title := "telemetry · " + strings.Join(names, ", ")
		ticks := []ChartTick{{X: 0, Label: "0"}, {X: float64(maxT), Label: sim.Duration(maxT).String()}}
		out = append(out, LineChartSVG(title, u, cs, ticks))
	}
	return out
}
