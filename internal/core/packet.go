package core

import (
	"sort"

	"apenetsim/internal/gpu"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// MemKind distinguishes host from GPU buffers; the BUF_LIST uses it to
// choose the RX write path, the PUT API uses it as the compile-time source
// flag the paper describes (§IV.A).
type MemKind int

const (
	HostMem MemKind = iota
	GPUMem
)

func (k MemKind) String() string {
	if k == GPUMem {
		return "GPU"
	}
	return "Host"
}

// JobKind classifies what a TXJob carries on the wire. The paper's API
// is PUT-only; the GET request/response engine (see get.go) adds three
// more classes that travel the same routed links but are dispatched
// differently by the receiving card's RX engine.
type JobKind int

const (
	// JobPut is an RDMA PUT data stream (the paper's only class).
	JobPut JobKind = iota
	// JobGetRequest is a GET request descriptor: a small control message
	// carrying (requester, reqID, remoteAddr, bytes, replyAddr) toward
	// the responder.
	JobGetRequest
	// JobGetReply is the GET reply: the read-out payload streamed back to
	// the requester as ordinary routed data.
	JobGetReply
	// JobGetError is a GET error reply: a control message failing the
	// requester's outstanding request (unregistered remote address, ...).
	JobGetError
)

func (k JobKind) String() string {
	switch k {
	case JobGetRequest:
		return "get_request"
	case JobGetReply:
		return "get_reply"
	case JobGetError:
		return "get_error"
	}
	return "put"
}

// TXJob is one transmission job submitted to the card: an RDMA PUT (the
// zero-valued Kind), or one leg of a GET request/response exchange.
type TXJob struct {
	ID      uint64
	Kind    JobKind
	SrcKind MemKind
	SrcGPU  *gpu.Device // required when SrcKind == GPUMem
	DstRank int
	DstAddr uint64 // destination UVA virtual address
	Bytes   units.ByteSize
	Payload any // application data carried to the receiver's completion

	// Submitted is stamped by the card when the driver accepts the job.
	Submitted sim.Time

	// enqueued is stamped just before the job enters the TX queue, so the
	// txq op-stage span can cover backpressure + queue residency. Zero on
	// jobs that bypass the stamped Put sites (stage span not measured).
	enqueued sim.Time

	srcRank int
	// routedAround is set (atomically, 0 -> 1) when some packet of the
	// job is detoured around a link marked down; the source card counts
	// the job once, on the first such hop (CardStats.RoutedAroundJobs).
	routedAround int32

	// get carries the request/response bookkeeping of GET-class jobs.
	get *getMeta
}

// Packet is one network packet of a fragmented job.
type Packet struct {
	Job   *TXJob
	Seq   int
	Bytes units.ByteSize
	Last  bool

	// In-flight routing state (see Network.forwardOrdered): the rank of
	// the node the packet is at, its hop tie key, and the callbacks of
	// its hop and delivery events, each bound once. The source card,
	// destination and wire size follow from Job.
	node         int
	key          uint64
	hop, deliver func()
}

// CompKind is the completion type.
type CompKind int

const (
	// SendDone: the job's last packet left the card (local completion).
	SendDone CompKind = iota
	// RecvDone: the job's last byte was written to the target buffer.
	RecvDone
	// GetDone: a GET's reply landed in the local buffer (or the request
	// failed — see Completion.Err). Delivered on the requester's GetCQ.
	GetDone
)

// Completion is an event delivered to a card's completion queues.
type Completion struct {
	Kind    CompKind
	JobID   uint64
	SrcRank int
	DstRank int
	DstAddr uint64
	Bytes   units.ByteSize
	At      sim.Time
	Payload any
	// Err is the failure cause of a GetDone completion ("" on success):
	// the responder's error reply, a reply lost to dead links, or a
	// partition discovered on the reply crossing.
	Err string
}

// BufEntry is one registered buffer in the card's BUF_LIST.
type BufEntry struct {
	Addr uint64
	Size units.ByteSize
	Kind MemKind
	GPU  *gpu.Device // for GPUMem entries

	reg int // position in registration order, maintained by BufList
}

// Contains reports whether [addr, addr+n) falls inside the buffer.
func (e *BufEntry) Contains(addr uint64, n units.ByteSize) bool {
	return addr >= e.Addr && addr+uint64(n) <= e.Addr+uint64(e.Size)
}

// end returns the exclusive upper bound of the buffer's range.
func (e *BufEntry) end() uint64 { return e.Addr + uint64(e.Size) }

// BufList models the card's registered-buffer table. The firmware scans
// it linearly — the paper calls out that RX processing time "linearly
// scales with the number of registered buffers" — so Lookup still reports
// how many entries that scan would examine, which feeds the firmware cost
// model. The *host-side* search, however, runs on a sorted interval index
// (an address-ordered slice with prefix-max range ends): for
// non-overlapping registrations — what the RDMA allocator produces — a
// lookup is O(log n) instead of O(n), so simulating clusters with
// thousands of registered buffers stays cheap. Overlapping entries only
// widen the scan to the overlapping run.
type BufList struct {
	entries []*BufEntry // registration order; e.reg is the position here
	byAddr  []*BufEntry // sorted by (Addr, registration order)
	maxEnd  []uint64    // maxEnd[i] = max end over byAddr[:i+1]
}

// Register adds an entry and returns its registration index.
func (b *BufList) Register(e *BufEntry) int {
	e.reg = len(b.entries)
	b.entries = append(b.entries, e)
	i := sort.Search(len(b.byAddr), func(j int) bool {
		a := b.byAddr[j]
		return a.Addr > e.Addr || (a.Addr == e.Addr && a.reg > e.reg)
	})
	b.byAddr = append(b.byAddr, nil)
	copy(b.byAddr[i+1:], b.byAddr[i:])
	b.byAddr[i] = e
	b.maxEnd = append(b.maxEnd, 0)
	b.rebuildMaxEnd(i)
	return e.reg
}

// Unregister removes an entry (by identity).
func (b *BufList) Unregister(e *BufEntry) bool {
	idx := -1
	for i, x := range b.entries {
		if x == e {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	b.entries = append(b.entries[:idx], b.entries[idx+1:]...)
	for _, x := range b.entries[idx:] {
		x.reg--
	}
	for i, x := range b.byAddr {
		if x == e {
			b.byAddr = append(b.byAddr[:i], b.byAddr[i+1:]...)
			b.maxEnd = b.maxEnd[:len(b.byAddr)]
			b.rebuildMaxEnd(i)
			break
		}
	}
	return true
}

// rebuildMaxEnd recomputes the prefix maxima from position i onward.
func (b *BufList) rebuildMaxEnd(i int) {
	for ; i < len(b.byAddr); i++ {
		end := b.byAddr[i].end()
		if i > 0 && b.maxEnd[i-1] > end {
			end = b.maxEnd[i-1]
		}
		b.maxEnd[i] = end
	}
}

// Lookup finds the buffer containing [addr, addr+n). It returns the
// entry, the number of entries the firmware's linear scan would examine
// (for the cost model: the match's registration position + 1, or the full
// list length on a miss), and whether the lookup succeeded. When several
// entries contain the range, the earliest registered wins — exactly what
// the linear scan returned.
func (b *BufList) Lookup(addr uint64, n units.ByteSize) (*BufEntry, int, bool) {
	idx := sort.Search(len(b.byAddr), func(i int) bool { return b.byAddr[i].Addr > addr })
	var found *BufEntry
	for i := idx - 1; i >= 0; i-- {
		if b.maxEnd[i] <= addr {
			break // nothing at or left of i can reach addr
		}
		if e := b.byAddr[i]; e.Contains(addr, n) && (found == nil || e.reg < found.reg) {
			found = e
		}
	}
	if found != nil {
		return found, found.reg + 1, true
	}
	return nil, len(b.entries), false
}

// Len returns the number of registered buffers.
func (b *BufList) Len() int { return len(b.entries) }
