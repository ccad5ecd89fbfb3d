// Package render turns trace captures into pictures: a per-link
// utilization timeline and a packet space-time diagram, emitted as
// self-contained SVG inside one HTML page. It consumes the shared
// trace.File capture schema — the stage-capture wire-hop spans drive
// both diagrams, link_stats snapshot events (core.Network.TraceLinkStats)
// drive the link table — and produces byte-stable output: iteration is
// sorted, floats are fixed-precision, and nothing reads a clock.
package render

import (
	"bytes"
	"fmt"
	"html"
	"sort"
	"strconv"
	"strings"

	"apenetsim/internal/opmetrics"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/trace"
)

const (
	svgW       = 960
	labelW     = 150 // left margin for lane labels / rank labels
	laneH      = 14
	laneGap    = 2
	buckets    = 120
	maxLanes   = 64   // timeline lanes (busiest first)
	maxTracks  = 1500 // space-time polylines
	spaceTimeH = 480
)

// hop is one parsed wire-hop span. deviated mirrors the router's own
// account (note flags dev=1/fault=1): the hop left the dimension-ordered
// path, which a pure hop count can miss — on a size-2 dimension the
// wraparound detour visits the same ranks as the direct link.
type hop struct {
	link     string
	op       uint64
	seq      int
	leg      string
	from, to int
	deviated bool
	t0, t1   sim.Time
}

// capture is the parsed view of a trace.File the renderers share.
type capture struct {
	f    *trace.File
	hops []hop
	dims torus.Dims
	maxT sim.Time
}

// parse reads the capture's hop spans. A hop span that starts before
// time 0 or ends before it starts, or that names a negative rank or one
// outside the capture's dims, makes the capture malformed.
func parse(f *trace.File) (*capture, error) {
	c := &capture{f: f}
	if f.Dims != "" {
		c.dims = parseDims(f.Dims)
	}
	for _, ev := range f.Events {
		if ev.End() > c.maxT {
			c.maxT = ev.End()
		}
		if ev.Comp == "coll" && ev.Kind == "world" && c.dims.Nodes() == 0 {
			c.dims = parseDims(ev.Note)
		}
		if ev.Kind != "hop" || !strings.HasPrefix(ev.Comp, "wire.") {
			continue
		}
		h := hop{link: strings.TrimPrefix(ev.Comp, "wire."), op: ev.Op, t0: ev.T, t1: ev.End()}
		h.leg = noteField(ev.Note, "leg")
		h.seq = noteInt(ev.Note, "seq")
		h.from = noteInt(ev.Note, "from")
		h.to = noteInt(ev.Note, "to")
		h.deviated = noteInt(ev.Note, "dev") == 1 || noteInt(ev.Note, "fault") == 1
		if h.t0 < 0 || h.t1 < h.t0 {
			return nil, fmt.Errorf("render: hop span on %s spans %d..%d ps, outside the run", h.link, h.t0, h.t1)
		}
		c.hops = append(c.hops, h)
	}
	for _, h := range c.hops {
		if h.from < 0 || h.to < 0 || (c.dims.Nodes() > 0 && max(h.from, h.to) >= c.dims.Nodes()) {
			return nil, fmt.Errorf("render: hop on %s from rank %d to rank %d outside the torus %s",
				h.link, h.from, h.to, orDash(dimsLabel(c)))
		}
	}
	if c.maxT <= 0 {
		c.maxT = 1
	}
	return c, nil
}

// parseDims parses "4x2x2" into torus dims; zero value unless the
// string names three positive dimensions.
func parseDims(s string) torus.Dims {
	d, err := torus.ParseDims(strings.ReplaceAll(s, "x", ","))
	if err != nil {
		return torus.Dims{}
	}
	return d
}

func noteField(note, key string) string {
	for _, tok := range strings.Fields(note) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			return v
		}
	}
	return ""
}

func noteInt(note, key string) int {
	n, _ := strconv.Atoi(noteField(note, key))
	return n
}

// fnum formats a coordinate with two decimals — the fixed precision that
// keeps output byte-stable.
func fnum(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// TimelineSVG renders the per-link utilization timeline: one lane per
// directed link (busiest first), time bucketed into fixed slots, each
// slot shaded by the fraction of it the link spent carrying data. The
// result is a standalone, well-formed XML document. A malformed capture
// (see Page) returns an error.
func TimelineSVG(f *trace.File) ([]byte, error) {
	c, err := parse(f)
	if err != nil {
		return nil, err
	}
	return timelineSVG(c), nil
}

func timelineSVG(c *capture) []byte {
	type lane struct {
		name string
		busy sim.Duration
		hops []hop
	}
	byLink := map[string]*lane{}
	for _, h := range c.hops {
		l, ok := byLink[h.link]
		if !ok {
			l = &lane{name: h.link}
			byLink[l.name] = l
		}
		l.busy += h.t1.Sub(h.t0)
		l.hops = append(l.hops, h)
	}
	lanes := make([]*lane, 0, len(byLink))
	for _, l := range byLink {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].busy != lanes[j].busy {
			return lanes[i].busy > lanes[j].busy
		}
		return lanes[i].name < lanes[j].name
	})
	dropped := 0
	if len(lanes) > maxLanes {
		dropped = len(lanes) - maxLanes
		lanes = lanes[:maxLanes]
	}

	plotW := float64(svgW - labelW - 10)
	h := len(lanes)*(laneH+laneGap) + 40
	if h < 60 {
		h = 60
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n", svgW, h)
	fmt.Fprintf(&b, `<text x="4" y="12">link utilization timeline · %d links · span %s</text>`+"\n",
		len(lanes)+dropped, html.EscapeString(sim.Duration(c.maxT).String()))
	if dropped > 0 {
		fmt.Fprintf(&b, `<text x="4" y="24" fill="#888">(%d quieter links not shown)</text>`+"\n", dropped)
	}
	y := 30
	bucketDur := sim.Duration(c.maxT) / sim.Duration(buckets)
	if bucketDur <= 0 {
		bucketDur = 1
	}
	for _, l := range lanes {
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", y+laneH-3, html.EscapeString(l.name))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%s" height="%d" fill="#f2f2f2"/>`+"\n", labelW, y, fnum(plotW), laneH)
		var fill [buckets]sim.Duration
		for _, hp := range l.hops {
			b0 := int(sim.Duration(hp.t0) / bucketDur)
			b1 := int(sim.Duration(hp.t1) / bucketDur)
			for i := b0; i <= b1 && i < buckets; i++ {
				lo, hi := sim.Time(sim.Duration(i)*bucketDur), sim.Time(sim.Duration(i+1)*bucketDur)
				s, e := hp.t0, hp.t1
				if s < lo {
					s = lo
				}
				if e > hi {
					e = hi
				}
				if e > s {
					fill[i] += e.Sub(s)
				}
			}
		}
		bw := plotW / buckets
		for i, d := range fill {
			if d <= 0 {
				continue
			}
			frac := float64(d) / float64(bucketDur)
			if frac > 1 {
				frac = 1
			}
			fmt.Fprintf(&b, `<rect x="%s" y="%d" width="%s" height="%d" fill="#2b6cb0" fill-opacity="%s"/>`+"\n",
				fnum(float64(labelW)+float64(float64(i)*bw)), y, fnum(bw), laneH, fnum(frac))
		}
		y += laneH + laneGap
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#888">0</text><text x="%d" y="%d" fill="#888" text-anchor="end">%s</text>`+"\n",
		labelW, y+12, svgW-10, y+12, html.EscapeString(sim.Duration(c.maxT).String()))
	b.WriteString("</svg>\n")
	return b.Bytes()
}

// track is one space-time polyline: a packet's consecutive wire hops.
type track struct {
	leg    string
	detour bool
	pts    []point
	hops   int
}

type point struct {
	t    sim.Time
	rank int
}

// tracks groups hop events into per-packet polylines, splitting a
// (op, seq) group into a new segment whenever continuity breaks (the
// next hop doesn't start where the previous ended — distinct packets
// from overlaid sub-worlds sharing a key, or a re-used sequence number).
func (c *capture) tracks() []*track {
	type key struct {
		op  uint64
		seq int
		leg string
	}
	order := []key{}
	byKey := map[key][]hop{}
	for _, h := range c.hops {
		k := key{h.op, h.seq, h.leg}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], h)
	}
	var out []*track
	for _, k := range order {
		hs := byKey[k]
		var cur *track
		for _, h := range hs {
			if cur == nil || len(cur.pts) == 0 ||
				cur.pts[len(cur.pts)-1].rank != h.from || h.t0 < cur.pts[len(cur.pts)-1].t {
				cur = &track{leg: h.leg}
				cur.pts = append(cur.pts, point{h.t0, h.from})
				out = append(out, cur)
			}
			cur.pts = append(cur.pts, point{h.t1, h.to})
			cur.hops++
			if h.deviated {
				cur.detour = true
			}
		}
	}
	if c.dims.Nodes() > 0 {
		// A detour is visible two ways: the router flagged a hop as off
		// the dimension-ordered path (exact, survives same-rank wraparound
		// detours), or the track used more hops than the torus minimum.
		for _, tr := range out {
			a := c.dims.CoordOf(tr.pts[0].rank)
			z := c.dims.CoordOf(tr.pts[len(tr.pts)-1].rank)
			tr.detour = tr.detour || tr.hops > c.dims.HopCount(a, z)
		}
	}
	return out
}

var legColor = map[string]string{
	"put":         "#2b6cb0",
	"get_request": "#2f855a",
	"get_reply":   "#6b46c1",
	"get_error":   "#c05621",
}

// SpaceTimeSVG renders the packet space-time diagram: card rank on the
// vertical axis, time on the horizontal, one polyline per packet.
// Dimension-ordered packets walk a minimal staircase toward their
// destination; detoured packets (more hops than the torus minimum, when
// the capture knows its dims) are drawn red and dashed, visibly off that
// staircase. The result is a standalone, well-formed XML document. A
// malformed capture (see Page) returns an error.
func SpaceTimeSVG(f *trace.File) ([]byte, error) {
	c, err := parse(f)
	if err != nil {
		return nil, err
	}
	return spaceTimeSVG(c), nil
}

func spaceTimeSVG(c *capture) []byte {
	trs := c.tracks()
	dropped := 0
	if len(trs) > maxTracks {
		dropped = len(trs) - maxTracks
		trs = trs[:maxTracks]
	}
	ranks := c.dims.Nodes()
	for _, tr := range trs {
		for _, p := range tr.pts {
			if p.rank+1 > ranks {
				ranks = p.rank + 1
			}
		}
	}
	if ranks < 2 {
		ranks = 2
	}
	plotW := float64(svgW - labelW - 10)
	plotH := float64(spaceTimeH - 60)
	// The float64 conversions round each product, so no architecture
	// fuses it with the sum into a multiply-add.
	xOf := func(t sim.Time) string {
		return fnum(float64(labelW) + float64(float64(t)/float64(c.maxT)*plotW))
	}
	yOf := func(rank int) string {
		return fnum(30 + float64(float64(rank)/float64(ranks-1)*plotH))
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n", svgW, spaceTimeH)
	fmt.Fprintf(&b, `<text x="4" y="12">packet space-time · %d packet tracks · %d ranks · span %s</text>`+"\n",
		len(trs)+dropped, ranks, html.EscapeString(sim.Duration(c.maxT).String()))
	if dropped > 0 {
		fmt.Fprintf(&b, `<text x="4" y="24" fill="#888">(%d later tracks not shown)</text>`+"\n", dropped)
	}
	detours := 0
	for _, tr := range trs {
		if tr.detour {
			detours++
		}
	}
	if detours > 0 {
		fmt.Fprintf(&b, `<text x="%d" y="12" fill="#e53e3e" text-anchor="end">%d detoured (red, dashed: off the minimal staircase)</text>`+"\n", svgW-10, detours)
	}
	// Rank gridlines, thinned to at most 16 labels.
	step := 1
	for ranks/step > 16 {
		step *= 2
	}
	for r := 0; r < ranks; r += step {
		fmt.Fprintf(&b, `<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#eee"/><text x="4" y="%s">rank %d</text>`+"\n",
			labelW, yOf(r), svgW-10, yOf(r), yOf(r), r)
	}
	for _, tr := range trs {
		color, ok := legColor[tr.leg]
		if !ok {
			color = "#2b6cb0"
		}
		dash := ""
		if tr.detour {
			color = "#e53e3e"
			dash = ` stroke-dasharray="4 2"`
		}
		var pts []string
		for _, p := range tr.pts {
			pts = append(pts, xOf(p.t)+","+yOf(p.rank))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-opacity="0.55"%s/>`+"\n",
			strings.Join(pts, " "), color, dash)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#888">0</text><text x="%d" y="%d" fill="#888" text-anchor="end">%s</text>`+"\n",
		labelW, spaceTimeH-8, svgW-10, spaceTimeH-8, html.EscapeString(sim.Duration(c.maxT).String()))
	b.WriteString("</svg>\n")
	return b.Bytes()
}

// linkRow is one entry of the HTML link table.
type linkRow struct {
	name    string
	packets int64
	bytes   int64
	util    string
}

// linkRows prefers the capture's link_stats snapshot events (exact
// counters from the network's meters; snapshots are cumulative, so the
// last one per link wins) and falls back to the File's Links field.
func (c *capture) linkRows() []linkRow {
	var rows []linkRow
	latest := map[string]int{}
	for _, ev := range c.f.Events {
		if ev.Kind != "link_stats" || !strings.HasPrefix(ev.Comp, "torus.") {
			continue
		}
		row := linkRow{
			name:    strings.TrimPrefix(ev.Comp, "torus."),
			packets: int64(noteInt(ev.Note, "packets")),
			bytes:   ev.Bytes,
			util:    noteField(ev.Note, "util"),
		}
		if i, ok := latest[row.name]; ok {
			rows[i] = row
			continue
		}
		latest[row.name] = len(rows)
		rows = append(rows, row)
	}
	if rows == nil {
		for _, l := range c.f.Links {
			util := ""
			if c.maxT > 0 {
				util = fnum(100*float64(l.Busy)/float64(c.maxT)) + "%"
			}
			rows = append(rows, linkRow{name: l.Link, packets: l.Packets, bytes: l.WireBytes, util: util})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].packets != rows[j].packets {
			return rows[i].packets > rows[j].packets
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > maxLanes {
		rows = rows[:maxLanes]
	}
	return rows
}

// Page renders the full self-contained HTML report: capture provenance,
// the utilization timeline, the space-time diagram, the per-op stage
// breakdown (when the capture holds stage events) and the link table.
// A capture whose hop spans start before time 0 or end before they
// start, or name ranks outside its torus, is malformed: Page returns an
// error and no page.
func Page(f *trace.File) ([]byte, error) {
	c, err := parse(f)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	title := "apenetsim trace"
	if f.Label != "" {
		title += " · " + f.Label
	}
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8"/>
<title>%s</title>
<style>
body { font-family: monospace; margin: 16px; background: #fff; color: #222; }
h1 { font-size: 16px; } h2 { font-size: 13px; margin-top: 24px; }
table { border-collapse: collapse; font-size: 11px; }
td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #f2f2f2; } td:first-child, th:first-child { text-align: left; }
p.meta { color: #666; font-size: 11px; }
</style>
</head>
<body>
<h1>%s</h1>
`, html.EscapeString(title), html.EscapeString(title))
	fmt.Fprintf(&b, `<p class="meta">source=%s dims=%s events=%d hop_spans=%d span=%s</p>`+"\n",
		html.EscapeString(orDash(f.Source)), html.EscapeString(orDash(dimsLabel(c))), len(f.Events), len(c.hops),
		html.EscapeString(sim.Duration(c.maxT).String()))

	b.WriteString("<h2>Link utilization timeline</h2>\n")
	b.Write(timelineSVG(c))
	b.WriteString("<h2>Packet space-time</h2>\n")
	b.Write(spaceTimeSVG(c))

	if len(f.Series) > 0 {
		b.WriteString("<h2>Run telemetry</h2>\n")
		if lanes := ShardLanesSVG(f); lanes != nil {
			b.Write(lanes)
		}
		for _, chart := range seriesCharts(f) {
			b.Write(chart)
		}
	}

	if ops := opmetrics.Collect(f.Events); len(ops) > 0 {
		b.WriteString("<h2>Stage breakdown (per-op percentiles)</h2>\n")
		b.WriteString("<table><tr><th>stage</th><th>ops</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>\n")
		for _, s := range opmetrics.Summarize(ops) {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(s.Stage), s.Count, s.P50, s.P90, s.P99, s.Max)
		}
		b.WriteString("</table>\n")
	}

	if rows := c.linkRows(); len(rows) > 0 {
		b.WriteString("<h2>Busiest links</h2>\n")
		b.WriteString("<table><tr><th>link</th><th>packets</th><th>wire bytes</th><th>util</th></tr>\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%s</td></tr>\n",
				html.EscapeString(r.name), r.packets, r.bytes, html.EscapeString(orDash(r.util)))
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body>\n</html>\n")
	return b.Bytes(), nil
}

func dimsLabel(c *capture) string {
	if c.dims.Nodes() > 0 {
		return c.dims.String()
	}
	return c.f.Dims
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
