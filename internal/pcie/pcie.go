// Package pcie models a node-local PCI Express fabric at transaction-burst
// granularity: devices hang off switches / the root complex through
// full-duplex links; each link direction is a time-reserved channel with
// TLP framing overhead. The model is precise where the paper's analysis is
// (burst serialization, per-TLP efficiency, request/response round trips)
// and deliberately coarse elsewhere (no flow-control DLLP simulation; the
// hierarchy is assumed non-blocking except at endpoint links, which is true
// for the paper's PLX/IOH platforms).
package pcie

import (
	"fmt"
	"math"
	"sort"

	"apenetsim/internal/sim"
	"apenetsim/internal/trace"
	"apenetsim/internal/units"
)

// LinkSpec describes a PCIe link: generation and lane count.
type LinkSpec struct {
	Gen   int
	Lanes int
}

// Gen2x8 is the APEnet+ and Cluster II HCA slot (4 GB/s raw per direction).
var Gen2x8 = LinkSpec{Gen: 2, Lanes: 8}

// Gen2x4 is the Cluster I HCA slot ("due to motherboard constraints").
var Gen2x4 = LinkSpec{Gen: 2, Lanes: 4}

// Gen2x16 is a GPU slot.
var Gen2x16 = LinkSpec{Gen: 2, Lanes: 16}

// RawBandwidth returns the per-direction raw data rate after line coding:
// 250 MB/s per lane for Gen1, 500 MB/s for Gen2 (5 GT/s with 8b/10b),
// 985 MB/s for Gen3.
func (s LinkSpec) RawBandwidth() units.Bandwidth {
	perLane := 0.0
	switch s.Gen {
	case 1:
		perLane = 250e6
	case 2:
		perLane = 500e6
	case 3:
		perLane = 985e6
	default:
		panic(fmt.Sprintf("pcie: unsupported generation %d", s.Gen))
	}
	return units.Bandwidth(perLane * float64(s.Lanes))
}

func (s LinkSpec) String() string { return fmt.Sprintf("Gen%d x%d", s.Gen, s.Lanes) }

// Framing constants. MaxPayload matches the typical 256-byte setting of the
// paper's platforms; TLPOverhead covers the TLP header, LCRC, framing
// symbols and the amortized DLLP traffic.
const (
	MaxPayload  units.ByteSize = 256
	TLPOverhead units.ByteSize = 28
	// ReadRequestTLP is the wire size of a memory read request.
	ReadRequestTLP units.ByteSize = 32
)

// Channel is one direction of a link: a time-reserved serial resource.
// Reservations model cut-through pipelining at burst granularity without
// per-TLP events: each burst occupies the channel for its wire time in
// the earliest idle gap at or after its requested start. Gap-filling
// matters: a paced stream (a GPU DMA copy, a P2P response train) books
// bursts with idle time between them, and hardware interleaves unrelated
// TLPs into those gaps — so must the model, or a long pre-booked copy
// would falsely stall every later flow on the link.
// The calendar is tuned for the dominant access pattern at scale — a
// long-lived link booking burst after burst at or past its horizon:
// such reservations take an O(1) tail fast path, gap searches start
// with a binary search instead of a scan, and expired intervals are
// dropped lazily by advancing a head index (no per-reservation copying).
// A paced train booked past the horizon is stored as one run entry
// instead of one interval per burst (see interval).
type Channel struct {
	eng  *sim.Engine
	name string
	bw   units.Bandwidth
	// busy[head:] is the live calendar, sorted by start, non-overlapping.
	// busy[:head] holds expired entries awaiting compaction (see prune).
	busy      []interval
	head      int
	busyTime  sim.Duration
	bytes     int64
	wireBytes int64
	// reservations counts booked bursts; peakWait is the longest any of
	// them waited past its requested start (the channel's peak queueing
	// delay). A torus link's meter is its channel.
	reservations int64
	peakWait     sim.Duration
	// lastN/lastDur memoize the latest wire-time conversion: streams book
	// uniform burst sizes back to back, so the float divide + round in
	// units.TransferTime would recompute the same value almost every call.
	lastN   units.ByteSize
	lastDur sim.Duration
}

// interval is one calendar entry: the busy span [start, end), or, when
// stride is non-zero, a run of bursts of length dur spaced stride apart,
// the first starting at start and the last ending at end. A run holds at
// least two bursts and stride > dur, so its gaps are never empty. Either
// kind spans [start, end), so the calendar stays sorted by start and
// pruned by end whatever it holds.
type interval struct {
	start, end  sim.Time
	stride, dur int32
}

// run returns the entry for the bursts of length dur at start, start +
// stride, ... whose last one ends at end: a plain interval for one burst.
func run(start, end sim.Time, stride, dur int32) interval {
	if end.Sub(start) == sim.Duration(dur) {
		return interval{start: start, end: end}
	}
	return interval{start, end, stride, dur}
}

// gap returns the earliest start at or after s for a burst of duration
// d, no longer than the run's gaps, in one of those gaps; ok is false if
// every gap that could hold it lies past the run's last burst. The burst
// must not fit before the run: s + d > start.
func (r *interval) gap(s sim.Time, d sim.Duration) (slot sim.Time, ok bool) {
	stride := sim.Duration(r.stride)
	// Gap k ends where burst k+1 starts; take the first gap ending at or
	// after s + d.
	next := r.start.Add((s.Add(d).Sub(r.start) + stride - 1) / stride * stride)
	if next >= r.end {
		return 0, false
	}
	if open := next.Add(sim.Duration(r.dur) - stride); s < open {
		s = open
	}
	return s, true
}

// NewChannel returns a channel with the given raw bandwidth.
func NewChannel(eng *sim.Engine, name string, bw units.Bandwidth) *Channel {
	return &Channel{eng: eng, name: name, bw: bw}
}

// findSlot returns the earliest start for a burst of duration d at or
// after from, and the index where its interval would be inserted, or of
// the run in one of whose gaps it lies. Pure read of the busy list —
// reserve books the slot, Probe only looks.
func (c *Channel) findSlot(from sim.Time, d sim.Duration) (start sim.Time, idx int) {
	if c.pastTail(from) {
		return from, len(c.busy)
	}
	live := c.busy[c.head:]
	n := len(live)
	// Skip entries that end at or before from.
	i := sort.Search(n, func(k int) bool { return live[k].end > from })
	start = from
	for i < n {
		iv := &live[i]
		if start.Add(d) <= iv.start {
			break // fits in the gap before entry i
		}
		if d <= sim.Duration(iv.stride-iv.dur) {
			if slot, ok := iv.gap(start, d); ok {
				return slot, c.head + i // fits in a gap of run i
			}
		}
		if iv.end > start {
			start = iv.end
		}
		i++
	}
	return start, c.head + i
}

// pastTail reports whether a burst requested at from lands at or past the
// calendar's horizon: the tail fast path, the steady state of a stream.
func (c *Channel) pastTail(from sim.Time) bool {
	n := len(c.busy)
	return n == c.head || from >= c.busy[n-1].end
}

// extendTail books [start, end) at the end of the calendar: it extends
// the last interval for back-to-back streams, else appends — no
// insertion shift either way. A run is never extended.
func (c *Channel) extendTail(start, end sim.Time) {
	if n := len(c.busy); n > c.head && c.busy[n-1].end == start && c.busy[n-1].stride == 0 {
		c.busy[n-1].end = end
	} else {
		c.busy = append(c.busy, interval{start: start, end: end})
	}
}

// reserve books d of channel time in the first idle gap at or after from.
func (c *Channel) reserve(from sim.Time, d sim.Duration) (start, end sim.Time) {
	if now := c.eng.Now(); from < now {
		from = now
	}
	c.reservations++
	if d <= 0 {
		return from, from
	}
	c.prune(1)
	c.busyTime += d
	if c.pastTail(from) {
		end = from.Add(d)
		c.extendTail(from, end)
		return from, end
	}
	return c.place(from, d)
}

// train books a train of bursts of duration d, in order: burst i is
// requested at at[i], and its end is left in at[i]. The calendar's busy
// time, the counters and the peak wait end up as reserve would leave
// them for the same bursts booked one at a time: no time passes during
// the train, so it clamps to now and prunes once. A train that a run can
// hold books as one (appendRun); any other books burst by burst.
func (c *Channel) train(at []sim.Time, d sim.Duration) {
	now := c.eng.Now()
	c.reservations += int64(len(at))
	if d <= 0 {
		for i, from := range at {
			if from < now {
				at[i] = now
			}
		}
		return
	}
	c.prune(len(at))
	c.busyTime += sim.Duration(len(at)) * d
	if c.appendRun(at, now, d) {
		return
	}
	for i, from := range at {
		if from < now {
			from = now
		}
		if c.pastTail(from) {
			at[i] = from.Add(d)
			c.extendTail(from, at[i])
			continue
		}
		_, at[i] = c.place(from, d)
	}
}

// appendRun books a train as one run at the tail and reports whether it
// could: the train has two bursts or more, its first is requested at or
// past the calendar's tail and not before now, and its requests are
// evenly spaced, wider than a burst and within an entry's int32 fields.
// Each burst then starts when requested, as reserve would start it.
func (c *Channel) appendRun(at []sim.Time, now sim.Time, d sim.Duration) bool {
	n := len(at)
	if n < 2 || at[0] < now || !c.pastTail(at[0]) {
		return false
	}
	stride := at[1].Sub(at[0])
	if stride <= d || stride > math.MaxInt32 {
		return false
	}
	for i := 2; i < n; i++ {
		if at[i].Sub(at[i-1]) != stride {
			return false
		}
	}
	c.busy = append(c.busy, interval{at[0], at[n-1].Add(d), int32(stride), int32(d)})
	for i := range at {
		at[i] = at[i].Add(d)
	}
	return true
}

// place books d in the first idle gap at or after from on a pruned
// calendar and records the wait: the gap search and insertion that
// reserve and train share.
func (c *Channel) place(from sim.Time, d sim.Duration) (start, end sim.Time) {
	start, i := c.findSlot(from, d)
	end = start.Add(d)
	if wait := start.Sub(from); wait > c.peakWait {
		c.peakWait = wait
	}
	if i == len(c.busy) {
		c.extendTail(start, end)
		return start, end
	}
	if start > c.busy[i].start {
		c.split(i, start, end)
		return start, end
	}
	c.busy = append(c.busy, interval{})
	copy(c.busy[i+1:], c.busy[i:])
	c.busy[i] = interval{start: start, end: end}
	c.coalesce(i)
	return start, end
}

// split books [start, end) in a gap of the run at index i: the run's
// bursts before the gap stay at i, the new interval follows them, and the
// run's bursts after the gap follow it.
func (c *Channel) split(i int, start, end sim.Time) {
	r := c.busy[i]
	stride := sim.Duration(r.stride)
	next := r.start.Add((start.Sub(r.start)/stride + 1) * stride)
	c.busy = append(c.busy, interval{}, interval{})
	copy(c.busy[i+3:], c.busy[i+1:])
	c.busy[i] = run(r.start, next.Add(sim.Duration(r.dur)-stride), r.stride, r.dur)
	c.busy[i+1] = interval{start: start, end: end}
	c.busy[i+2] = run(next, r.end, r.stride, r.dur)
	c.coalesce(i + 1)
}

// coalesce merges the plain interval at index i with exactly-adjacent
// plain neighbors to keep the list compact for back-to-back streams.
func (c *Channel) coalesce(i int) {
	if i+1 < len(c.busy) && c.busy[i+1].stride == 0 && c.busy[i].end == c.busy[i+1].start {
		c.busy[i].end = c.busy[i+1].end
		c.busy = append(c.busy[:i+1], c.busy[i+2:]...)
	}
	if i > c.head && c.busy[i-1].stride == 0 && c.busy[i-1].end == c.busy[i].start {
		c.busy[i-1].end = c.busy[i].end
		c.busy = append(c.busy[:i], c.busy[i+1:]...)
	}
}

// prune drops intervals that ended before the current simulation time: no
// reservation can be placed there anymore. Dropping is lazy — the head
// index advances past expired entries and the backing array is compacted
// only once the dead prefix dominates, keeping steady-state reservation
// free of per-call copying. A full array that the coming bookings, about
// one entry each (a split of a run adds two), would grow compacts
// earlier, once its dead prefix is a third of it: reclaiming that prefix
// beats growing, and each such compaction frees a third of the array, so
// it copies at most two live entries per booking, amortized. A smaller
// dead prefix lets the array grow.
func (c *Channel) prune(bookings int) {
	now := c.eng.PruneHorizon()
	if live := c.busy[c.head:]; len(live) > 0 && live[0].end <= now {
		c.head += sort.Search(len(live), func(i int) bool { return live[i].end > now })
	}
	full := len(c.busy)+bookings > cap(c.busy)
	if c.head > len(c.busy)-c.head || full && 3*c.head >= len(c.busy) {
		c.compact()
	}
}

// compact reclaims the expired prefix.
func (c *Channel) compact() {
	if c.head == 0 {
		return
	}
	n := copy(c.busy, c.busy[c.head:])
	c.busy = c.busy[:n]
	c.head = 0
}

// WireTime returns the serialization time of n payload bytes including
// per-TLP framing overhead.
func (c *Channel) WireTime(n units.ByteSize) sim.Duration {
	return c.transfer(wireSize(n))
}

// transfer converts raw wire bytes to serialization time, memoized on the
// last burst size.
func (c *Channel) transfer(n units.ByteSize) sim.Duration {
	if n == c.lastN {
		return c.lastDur
	}
	d := units.TransferTime(n, c.bw)
	c.lastN, c.lastDur = n, d
	return d
}

func wireSize(n units.ByteSize) units.ByteSize {
	if n <= 0 {
		return 0
	}
	tlps := (n + MaxPayload - 1) / MaxPayload
	return n + tlps*TLPOverhead
}

// Reserve books n payload bytes onto the channel starting no earlier than
// `from`, and returns when the burst starts and ends on the wire.
func (c *Channel) Reserve(from sim.Time, n units.ByteSize) (start, end sim.Time) {
	start, end = c.reserve(from, c.WireTime(n))
	c.bytes += int64(n)
	c.wireBytes += int64(wireSize(n))
	return start, end
}

// ReserveRaw books n raw wire bytes (no framing added): used for protocol
// traffic whose size is already the on-wire size, like read request TLPs.
func (c *Channel) ReserveRaw(from sim.Time, n units.ByteSize) (start, end sim.Time) {
	start, end = c.reserve(from, c.transfer(n))
	c.wireBytes += int64(n)
	return start, end
}

// reserveTrain is Reserve for a train of bursts of n payload bytes each,
// burst i requested at at[i]; it leaves each burst's end in at[i].
func (c *Channel) reserveTrain(at []sim.Time, n units.ByteSize) {
	c.train(at, c.WireTime(n))
	c.bytes += int64(len(at)) * int64(n)
	c.wireBytes += int64(len(at)) * int64(wireSize(n))
}

// reserveRawTrain is ReserveRaw for a train of bursts of n raw bytes each.
func (c *Channel) reserveRawTrain(at []sim.Time, n units.ByteSize) {
	c.train(at, c.transfer(n))
	c.wireBytes += int64(len(at)) * int64(n)
}

// Probe returns the earliest time a ReserveRaw of n bytes requested at
// `from` would start on the wire, without booking anything — the same
// gap-filling search as reserve (findSlot), read-only. Adaptive routing
// uses it to compare the live backlog of candidate links before
// committing to one.
func (c *Channel) Probe(from sim.Time, n units.ByteSize) (start sim.Time) {
	if now := c.eng.Now(); from < now {
		from = now
	}
	d := c.transfer(n)
	if d <= 0 {
		return from
	}
	start, _ = c.findSlot(from, d)
	return start
}

// BusyTime returns the cumulative time the channel carried data.
func (c *Channel) BusyTime() sim.Duration { return c.busyTime }

// Utilization returns the fraction of wall time the channel was busy.
func (c *Channel) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(c.busyTime) / float64(sim.Duration(now))
}

// PayloadBytes returns the payload bytes carried so far.
func (c *Channel) PayloadBytes() int64 { return c.bytes }

// WireBytes returns raw wire bytes carried so far (payload + framing).
func (c *Channel) WireBytes() int64 { return c.wireBytes }

// Reservations returns the number of bursts booked so far: one per
// Reserve or ReserveRaw call, one per burst of a train. Probe books
// nothing and counts nothing.
func (c *Channel) Reservations() int64 { return c.reservations }

// PeakWait returns the longest time any reservation waited for the wire
// past its requested start (or the current time, if that was later).
func (c *Channel) PeakWait() sim.Duration { return c.peakWait }

// Bandwidth returns the raw channel bandwidth.
func (c *Channel) Bandwidth() units.Bandwidth { return c.bw }

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// Device is a PCIe function: root complex, switch, or endpoint. Endpoints
// and switches attach to a parent through a full-duplex link.
type Device struct {
	Name string
	fab  *Fabric

	parent *Device
	// up carries traffic device->parent; down carries parent->device.
	up, down *Channel
	hopLat   sim.Duration
	// id is the device's index in its fabric, in attach order; paths[id]
	// of another device is its memoized route to this one.
	id    int
	paths []*Path

	// CompletionLatency is the device-internal latency between receiving
	// a memory read request and emitting the first completion. For host
	// memory this is the memory controller + IOH latency.
	CompletionLatency sim.Duration
}

// Fabric is one node's PCIe hierarchy.
type Fabric struct {
	Eng  *sim.Engine
	Rec  *trace.Recorder
	Name string

	root *Device
	devs map[string]*Device
}

// NewFabric creates a fabric with a root complex named rcName.
func NewFabric(eng *sim.Engine, rec *trace.Recorder, name, rcName string) *Fabric {
	f := &Fabric{Eng: eng, Rec: rec, Name: name, devs: map[string]*Device{}}
	f.root = &Device{Name: rcName, fab: f}
	f.devs[rcName] = f.root
	return f
}

// Root returns the root complex device.
func (f *Fabric) Root() *Device { return f.root }

// Device returns a device by name, or nil.
func (f *Fabric) Device(name string) *Device { return f.devs[name] }

// Attach adds a device under parent with the given link spec and one-hop
// forwarding latency (switch/RC traversal plus wire).
func (f *Fabric) Attach(name string, parent *Device, spec LinkSpec, hopLat sim.Duration) *Device {
	if _, dup := f.devs[name]; dup {
		panic("pcie: duplicate device " + name)
	}
	if parent == nil || parent.fab != f {
		panic("pcie: bad parent for " + name)
	}
	bw := spec.RawBandwidth()
	d := &Device{
		Name:   name,
		fab:    f,
		parent: parent,
		up:     NewChannel(f.Eng, f.Name+"."+name+".up", bw),
		down:   NewChannel(f.Eng, f.Name+"."+name+".down", bw),
		hopLat: hopLat,
		id:     len(f.devs),
	}
	f.devs[name] = d
	return d
}

// Path is a directed route between two devices: the ordered channels a
// transaction crosses plus the fixed propagation/forwarding latency.
type Path struct {
	fab      *Fabric
	From, To *Device
	channels []*Channel
	latency  sim.Duration
}

// Path returns the route from a to b through their common ancestor.
// Routes never change once both devices are attached (the hierarchy only
// grows leaves), so results are cached and shared; callers must treat the
// returned Path as read-only. The hot callers (per-packet GPU fetch and
// RX DMA programming) resolve the same pair over and over, so the cache
// is an array index, not a hash.
func (f *Fabric) Path(a, b *Device) *Path {
	if b.id < len(a.paths) {
		if p := a.paths[b.id]; p != nil && p.To == b {
			return p
		}
	}
	p := f.computePath(a, b)
	if b.id >= len(a.paths) {
		a.paths = append(a.paths, make([]*Path, b.id+1-len(a.paths))...)
	}
	a.paths[b.id] = p
	return p
}

// computePath resolves the route from a to b.
func (f *Fabric) computePath(a, b *Device) *Path {
	if a == b {
		return &Path{fab: f, From: a, To: b}
	}
	// Collect ancestor chains.
	anc := func(d *Device) []*Device {
		var out []*Device
		for x := d; x != nil; x = x.parent {
			out = append(out, x)
		}
		return out
	}
	aa, bb := anc(a), anc(b)
	depth := map[*Device]int{}
	for i, d := range aa {
		depth[d] = i
	}
	var meet *Device
	for _, d := range bb {
		if _, ok := depth[d]; ok {
			meet = d
			break
		}
	}
	if meet == nil {
		panic("pcie: devices on different fabrics")
	}
	p := &Path{fab: f, From: a, To: b}
	for d := a; d != meet; d = d.parent {
		p.channels = append(p.channels, d.up)
		p.latency += d.hopLat
	}
	// Downward half: from meet to b, in order.
	var downs []*Device
	for d := b; d != meet; d = d.parent {
		downs = append(downs, d)
	}
	for i := len(downs) - 1; i >= 0; i-- {
		p.channels = append(p.channels, downs[i].down)
		p.latency += downs[i].hopLat
	}
	return p
}

// Hops returns the number of channels crossed.
func (p *Path) Hops() int { return len(p.channels) }

// Latency returns the fixed (zero-load) propagation latency of the path.
func (p *Path) Latency() sim.Duration { return p.latency }

// Send books a posted-write burst of n bytes through the path starting no
// earlier than `from`. It returns when the burst has fully left the first
// channel (the instant the sender is free to inject more) and when it
// fully arrives at the destination. Send never blocks: callers that want
// to wait sleep until the returned times.
func (p *Path) Send(from sim.Time, n units.ByteSize) (senderFree, arrival sim.Time) {
	if n < 0 {
		panic("pcie: negative burst")
	}
	t := from
	senderFree = from
	for i, ch := range p.channels {
		_, end := ch.Reserve(t, n)
		if i == 0 {
			senderFree = end
		}
		t = end
	}
	arrival = t.Add(p.latency)
	if p.fab.Rec.Enabled() && n > 0 {
		p.fab.Rec.Emit(arrival, p.To.Name, "write", int64(n), "from "+p.From.Name)
	}
	return senderFree, arrival
}

// SendRaw is Send for protocol traffic already sized for the wire
// (read-request TLPs, doorbells); no framing overhead is added.
func (p *Path) SendRaw(from sim.Time, n units.ByteSize) (senderFree, arrival sim.Time) {
	t := from
	senderFree = from
	for i, ch := range p.channels {
		_, end := ch.ReserveRaw(t, n)
		if i == 0 {
			senderFree = end
		}
		t = end
	}
	arrival = t.Add(p.latency)
	return senderFree, arrival
}

// SendTrain is Send for a train of bursts of n bytes each: burst i leaves
// at at[i], and its arrival at the destination is left in at[i]. Every
// channel books the whole train before the next channel on the path takes
// the train's arrival times. That books what Send would book burst by
// burst: a channel's bookings depend only on its own earlier bookings and
// on the current time, and no time passes during the train.
func (p *Path) SendTrain(at []sim.Time, n units.ByteSize) {
	if n < 0 {
		panic("pcie: negative burst")
	}
	for _, ch := range p.channels {
		ch.reserveTrain(at, n)
	}
	for i := range at {
		at[i] = at[i].Add(p.latency)
	}
	if p.fab.Rec.Enabled() && n > 0 {
		note := "from " + p.From.Name
		for _, t := range at {
			p.fab.Rec.Emit(t, p.To.Name, "write", int64(n), note)
		}
	}
}

// SendRawTrain is SendRaw for a train of bursts, booked like SendTrain.
func (p *Path) SendRawTrain(at []sim.Time, n units.ByteSize) {
	for _, ch := range p.channels {
		ch.reserveRawTrain(at, n)
	}
	for i := range at {
		at[i] = at[i].Add(p.latency)
	}
}

// Reader performs split-transaction memory reads from a target device with
// a bounded number of outstanding requests, the way a DMA engine does. The
// closed request loop is what produces realistic read bandwidths (e.g. the
// card's 2.4 GB/s host-memory read over a 4 GB/s link).
//
// A Reader issues one read's chunks at a time, in one loop driven by tag
// grants: each chunk takes a request tag, free tags are taken at once, and
// a tag grant's event resumes the loop. A read's caller continues once its
// last chunk is issued, while the completions are still in flight.
type Reader struct {
	fab       *Fabric
	initiator *Device
	target    *Device
	reqPath   *Path
	cplPath   *Path
	tags      *sim.Semaphore
	chunk     units.ByteSize
	// releaseTag is the completion event of every chunk but a read's
	// last: bound once here, so a chunk schedules it without allocating.
	releaseTag func()

	// The read being issued: the bytes its chunks have yet to request,
	// its latest completion arrival so far, its completion callback and
	// the continuation run once its last chunk is issued. resume is the
	// loop's tag-grant event, bound once here.
	remaining   units.ByteSize
	lastArrival sim.Time
	onDone      func(last sim.Time)
	issued      func()
	resume      func()
	// parked is the proc ReadAsync parked until the last chunk is issued.
	parked     *sim.Proc
	wakeParked func()
}

// NewReader builds a read engine: `outstanding` in-flight requests of
// `chunk` bytes each.
func (f *Fabric) NewReader(initiator, target *Device, outstanding int, chunk units.ByteSize) *Reader {
	r := &Reader{
		fab:       f,
		initiator: initiator,
		target:    target,
		reqPath:   f.Path(initiator, target),
		cplPath:   f.Path(target, initiator),
		tags:      sim.NewSemaphore(f.Eng, int64(outstanding)),
		chunk:     chunk,
	}
	r.releaseTag = func() { r.tags.Release(1) }
	r.resume = r.grant
	return r
}

// ReadFunc starts fetching n bytes; onDone fires (in engine context) when
// the last completion arrives. It reports true when every chunk was
// issued at once, so the caller continues; otherwise the loop waits for a
// request tag and calls issued, from the event of the grant that let the
// last chunk out, as its last action. Across successive reads
// completions arrive in issue order, so a DMA engine streaming many
// buffers keeps its pipeline full — this is what lets the APEnet+
// host-read engine sustain ~2.4 GB/s instead of draining its tags at
// every packet boundary. One read issues at a time: the next may start
// once this one's chunks are out.
func (r *Reader) ReadFunc(n units.ByteSize, onDone func(last sim.Time), issued func()) bool {
	if r.remaining > 0 {
		panic("pcie: read started while another is still issuing")
	}
	if n <= 0 {
		onDone(r.fab.Eng.Now())
		return true
	}
	r.remaining, r.lastArrival, r.onDone, r.issued = n, 0, onDone, issued
	return r.issue()
}

// issue issues the current read's chunks while request tags are free. It
// reports true once the last chunk is out, and false when it waits for a
// tag, whose grant resumes the loop.
func (r *Reader) issue() bool {
	for r.remaining > 0 {
		if !r.tags.AcquireFunc(1, r.resume) {
			return false
		}
		r.issueChunk()
	}
	r.onDone = nil
	return true
}

// grant is the tag grant's event: it issues the chunk the tag was granted
// for, continues the loop, and hands control to the read's caller once
// the last chunk is out.
func (r *Reader) grant() {
	r.issueChunk()
	if r.issue() {
		issued := r.issued
		r.issued = nil
		issued()
	}
}

// issueChunk sends one chunk's request, holding a tag already taken, and
// schedules the chunk's completion: a tag release, or for the read's last
// chunk the release and onDone.
func (r *Reader) issueChunk() {
	eng := r.fab.Eng
	sz := r.chunk
	if sz > r.remaining {
		sz = r.remaining
	}
	r.remaining -= sz
	// Request TLP travels to the target...
	_, reqArr := r.reqPath.SendRaw(eng.Now(), ReadRequestTLP)
	// ...the target thinks...
	cplStart := reqArr.Add(r.target.CompletionLatency)
	// ...completions stream back.
	_, cplArr := r.cplPath.Send(cplStart, sz)
	if cplArr > r.lastArrival {
		r.lastArrival = cplArr
	}
	if r.remaining > 0 {
		eng.At(cplArr, r.releaseTag)
		return
	}
	final, onDone := r.lastArrival, r.onDone
	eng.At(cplArr, func() {
		r.tags.Release(1)
		onDone(final)
	})
}

// ReadAsync is ReadFunc for a proc: p stays parked while the engine is out
// of request tags and continues once the read's last chunk is issued.
func (r *Reader) ReadAsync(p *sim.Proc, n units.ByteSize, onDone func(last sim.Time)) {
	if r.wakeParked == nil {
		r.wakeParked = func() {
			p := r.parked
			r.parked = nil
			r.fab.Eng.Wake(p)
		}
	}
	if r.ReadFunc(n, onDone, r.wakeParked) {
		return
	}
	r.parked = p
	p.Park("pcie.read.tags")
}
