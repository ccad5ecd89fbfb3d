// Package trace records timestamped model events. It plays the role of the
// PCIe bus analyzer ("active interposer") the paper used to produce Fig 3:
// components emit events; the recorder filters, summarizes and renders them.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"apenetsim/internal/sim"
)

// Event is one recorded occurrence. Point events carry only T; span
// events (EmitSpan, EmitOp) additionally carry Dur, and stage events
// carry Op, the cluster-unique operation key they belong to. Both extra
// fields are additive to the schema-1 JSON shape and omitted when zero.
type Event struct {
	T     sim.Time     `json:"t_ps"`
	Comp  string       `json:"comp"`            // emitting component, e.g. "pcie.apenet0", "gpu0.p2p"
	Kind  string       `json:"kind"`            // event kind, e.g. "read_req", "data", "mailbox_write"
	Bytes int64        `json:"bytes,omitempty"` // payload size if applicable
	Note  string       `json:"note,omitempty"`
	Dur   sim.Duration `json:"dur_ps,omitempty"` // span length; 0 = point event
	Op    uint64       `json:"op,omitempty"`     // owning operation key; 0 = none
}

// End returns the end of a span event (T for point events).
func (ev Event) End() sim.Time { return ev.T.Add(ev.Dur) }

// Recorder collects events. A nil *Recorder is valid and records nothing,
// so model components can trace unconditionally.
type Recorder struct {
	events  []Event
	enabled bool
	stages  bool
}

// New returns an enabled recorder.
func New() *Recorder { return &Recorder{enabled: true} }

// Emit records an event. Safe on a nil or disabled recorder.
func (r *Recorder) Emit(t sim.Time, comp, kind string, bytes int64, note string) {
	if r == nil || !r.enabled {
		return
	}
	r.events = append(r.events, Event{T: t, Comp: comp, Kind: kind, Bytes: bytes, Note: note})
}

// EmitSpan records one event covering [t0, t1] instead of two correlated
// point emits. A t1 before t0 is clamped to a zero-length span. Safe on a
// nil or disabled recorder.
func (r *Recorder) EmitSpan(t0, t1 sim.Time, comp, kind string, bytes int64, note string) {
	if r == nil || !r.enabled {
		return
	}
	dur := t1.Sub(t0)
	if dur < 0 {
		dur = 0
	}
	r.events = append(r.events, Event{T: t0, Comp: comp, Kind: kind, Bytes: bytes, Note: note, Dur: dur})
}

// EmitOp records a span event tagged with the operation key it belongs
// to; internal/opmetrics folds these into per-operation stage records.
// Safe on a nil or disabled recorder.
func (r *Recorder) EmitOp(t0, t1 sim.Time, comp, kind string, op uint64, bytes int64, note string) {
	if r == nil || !r.enabled {
		return
	}
	dur := t1.Sub(t0)
	if dur < 0 {
		dur = 0
	}
	r.events = append(r.events, Event{T: t0, Comp: comp, Kind: kind, Bytes: bytes, Note: note, Dur: dur, Op: op})
}

// Stages reports whether stage-level instrumentation (per-op pipeline
// spans in core, nios task spans) should be emitted to this recorder.
// Off by default so pre-existing recorders — and every committed baseline
// that counts their events — see an unchanged event stream; apebench
// -trace-out and the op-breakdown experiment turn it on. Safe on nil.
func (r *Recorder) Stages() bool { return r != nil && r.enabled && r.stages }

// SetStages toggles stage-level capture.
func (r *Recorder) SetStages(v bool) {
	if r != nil {
		r.stages = v
	}
}

// Enabled reports whether the recorder captures events.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// SetEnabled toggles capturing.
func (r *Recorder) SetEnabled(v bool) {
	if r != nil {
		r.enabled = v
	}
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns all recorded events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Reset discards recorded events.
func (r *Recorder) Reset() {
	if r != nil {
		r.events = r.events[:0]
	}
}

// Filter returns the events matching the given component and kind
// prefixes; empty prefixes match everything.
func (r *Recorder) Filter(compPrefix, kindPrefix string) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, ev := range r.events {
		if strings.HasPrefix(ev.Comp, compPrefix) && strings.HasPrefix(ev.Kind, kindPrefix) {
			out = append(out, ev)
		}
	}
	return out
}

// First returns the first event matching comp/kind prefixes, or ok=false.
func (r *Recorder) First(compPrefix, kindPrefix string) (Event, bool) {
	evs := r.Filter(compPrefix, kindPrefix)
	if len(evs) == 0 {
		return Event{}, false
	}
	return evs[0], true
}

// Last returns the last event matching comp/kind prefixes, or ok=false.
func (r *Recorder) Last(compPrefix, kindPrefix string) (Event, bool) {
	evs := r.Filter(compPrefix, kindPrefix)
	if len(evs) == 0 {
		return Event{}, false
	}
	return evs[len(evs)-1], true
}

// WriteText renders the trace as aligned text, one event per line.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, ev := range r.Events() {
		var err error
		if ev.Bytes > 0 {
			_, err = fmt.Fprintf(w, "%12s  %-22s %-18s %7dB  %s\n", ev.T, ev.Comp, ev.Kind, ev.Bytes, ev.Note)
		} else {
			_, err = fmt.Fprintf(w, "%12s  %-22s %-18s %9s %s\n", ev.T, ev.Comp, ev.Kind, "", ev.Note)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the trace as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_ps,component,kind,bytes,note"); err != nil {
		return err
	}
	for _, ev := range r.Events() {
		note := strings.ReplaceAll(ev.Note, `"`, `""`)
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%q\n", int64(ev.T), ev.Comp, ev.Kind, ev.Bytes, note); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the trace as a JSON array of events, the
// machine-readable counterpart of WriteCSV (consumed by the same tooling
// as the apebench JSON reports; see docs/REPORTS.md).
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	evs := r.Events()
	if evs == nil {
		evs = []Event{}
	}
	return enc.Encode(evs)
}

// canonicalLess orders events by the full record: time first, then every
// other field lexicographically. It is a total order up to identical
// records, which is the property the sharded merge needs: two captures
// holding the same multiset of events sort to byte-identical sequences
// regardless of how emissions were distributed across shards or streams.
func canonicalLess(a, b Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Comp != b.Comp {
		return a.Comp < b.Comp
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.Dur != b.Dur {
		return a.Dur < b.Dur
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	return a.Note < b.Note
}

// SortCanonical stable-sorts events into the canonical capture order:
// by time, with full-record lexicographic tie-breaks, and original
// position (stream order: shard index, then per-stream emission
// sequence) deciding between identical records. Every event field in
// this simulator is a pure function of model results — which are pinned
// byte-identical across shard counts — so captures of the same run
// merged from any shard decomposition canonicalize to the same stream.
func SortCanonical(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return canonicalLess(evs[i], evs[j]) })
}

// MergeCanonical appends the given per-shard streams (in shard order) to
// the recorder and canonically sorts the suffix starting at mark —
// normally the recorder's Len() before the run whose streams are being
// merged, so earlier captures (previous worlds recorded into the same
// recorder, with their own restarting clocks) keep their order. With no
// streams it canonicalizes the suffix in place. Safe on a nil or
// disabled recorder.
func (r *Recorder) MergeCanonical(mark int, streams ...[]Event) {
	if r == nil || !r.enabled {
		return
	}
	for _, s := range streams {
		r.events = append(r.events, s...)
	}
	if mark < 0 {
		mark = 0
	}
	if mark > len(r.events) {
		mark = len(r.events)
	}
	SortCanonical(r.events[mark:])
}

// Summary aggregates per (component, kind): count, bytes, time span.
type Summary struct {
	Comp  string   `json:"comp"`
	Kind  string   `json:"kind"`
	Count int      `json:"count"`
	Bytes int64    `json:"bytes"`
	First sim.Time `json:"first_ps"`
	Last  sim.Time `json:"last_ps"`
}

// Summarize groups recorded events by (component, kind), sorted by
// component then kind.
func (r *Recorder) Summarize() []Summary {
	return SummarizeEvents(r.Events())
}

// SummarizeEvents is Summarize for an event slice that no longer has a
// recorder — a loaded capture file, a filtered view.
func SummarizeEvents(evs []Event) []Summary {
	agg := map[[2]string]*Summary{}
	for _, ev := range evs {
		k := [2]string{ev.Comp, ev.Kind}
		s, ok := agg[k]
		if !ok {
			s = &Summary{Comp: ev.Comp, Kind: ev.Kind, First: ev.T}
			agg[k] = s
		}
		s.Count++
		s.Bytes += ev.Bytes
		s.Last = ev.T
	}
	out := make([]Summary, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Comp != out[j].Comp {
			return out[i].Comp < out[j].Comp
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
