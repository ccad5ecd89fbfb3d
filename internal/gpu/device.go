package gpu

import (
	"fmt"

	"apenetsim/internal/pcie"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// Device is one GPU instance attached to a node's PCIe fabric.
type Device struct {
	Eng  *sim.Engine
	Spec Spec
	Name string
	// PCI is the endpoint on the node fabric. Its CompletionLatency is the
	// BAR1 read completion latency (P2P reads do not use completions; they
	// are a write-based mailbox protocol).
	PCI *pcie.Device

	Mem *Allocator

	// P2P read responder state: a serial internal read pipe running at
	// Spec.P2PResponseRate. respBusyUntil is its reservation horizon.
	respBusyUntil sim.Time

	// BAR1 state.
	bar1Mapped units.ByteSize

	// Copy-engine reservation horizons (one engine per direction, which is
	// what Fermi/Kepler Teslas have).
	dmaD2HBusyUntil sim.Time
	dmaH2DBusyUntil sim.Time

	stats Stats
}

// Stats counts device activity.
type Stats struct {
	P2PReadRequests int64
	P2PReadBytes    int64
	BAR1ReadBytes   int64
	P2PWriteBytes   int64
	MemcpyD2HBytes  int64
	MemcpyH2DBytes  int64
	KernelLaunches  int64
}

// New attaches a GPU with the given spec to a PCIe fabric under parent.
func New(eng *sim.Engine, fab *pcie.Fabric, name string, spec Spec, parent *pcie.Device, slot pcie.LinkSpec, hopLat sim.Duration) *Device {
	pci := fab.Attach(name, parent, slot, hopLat)
	pci.CompletionLatency = spec.BAR1CplLatency
	return &Device{
		Eng:  eng,
		Spec: spec,
		Name: name,
		PCI:  pci,
		Mem:  NewAllocator(spec.MemBytes, 256),
	}
}

// Stats returns activity counters.
func (d *Device) Statistics() Stats { return d.stats }

// --- P2P read protocol (GPUDirect peer-to-peer) ---------------------------

// P2PServeTrain serves a train of read descriptors (mailbox writes):
// request i lands on the GPU at at[i], and the train reads n bytes in
// requests of per bytes, the last request taking what remains. The
// internal read pipe fetches the requests in order, each response streams
// back to the initiator over respPath as posted writes, and at[i] is left
// holding the arrival of request i's last response byte at the initiator.
// It returns the latest of those arrivals.
//
// The model captures the two properties the paper measures: a fixed
// request-to-first-data head latency (~1.8 µs on Fermi) and a sustained
// response rate (~1536 MB/s on Fermi) well below the PCIe link rate —
// the GPU memory subsystem is optimized for throughput from the SM side,
// not for external latency (§V.A).
func (d *Device) P2PServeTrain(at []sim.Time, n, per units.ByteSize, respPath *pcie.Path) (last sim.Time) {
	k := len(at) - 1
	tail := n - units.ByteSize(k)*per
	if tail <= 0 || tail > per {
		panic(fmt.Sprintf("gpu: %d requests of %v do not read %v", len(at), per, n))
	}
	rate, chunk := d.Spec.P2PResponseRate, d.Spec.P2PRespChunk
	// A response that fits one write burst is ready to leave once its
	// whole request is fetched; a longer one streams chunk by chunk.
	oneBurst := per <= chunk
	fetch := units.TransferTime(per, rate)
	tailFetch := fetch
	if tail != per {
		tailFetch = units.TransferTime(tail, rate)
	}
	for i, t := range at {
		f := fetch
		if i == k {
			f = tailFetch
		}
		start := t
		if d.respBusyUntil > start {
			start = d.respBusyUntil
		}
		d.respBusyUntil = start.Add(f)
		// Data leaves the GPU one pipe-latency after each piece is fetched.
		at[i] = start.Add(d.Spec.P2PReadHeadLatency)
		if oneBurst {
			at[i] = at[i].Add(f)
		}
	}
	d.stats.P2PReadRequests += int64(len(at))
	d.stats.P2PReadBytes += int64(n)
	switch {
	case oneBurst && tail == per:
		respPath.SendTrain(at, per)
	case oneBurst:
		respPath.SendTrain(at[:k], per)
		respPath.SendTrain(at[k:], tail)
	default:
		for i, t := range at {
			sz := per
			if i == k {
				sz = tail
			}
			_, at[i] = respPath.Stream(t, sz, rate, chunk)
		}
	}
	for _, t := range at {
		if t > last {
			last = t
		}
	}
	return last
}

// P2PWriteCost returns the extra per-packet receive cost of writing n
// bytes into device memory through the P2P sliding window (vs. writing
// host memory). The paper attributes a ~10% G-G receive penalty to it.
func (d *Device) P2PWriteCost(n units.ByteSize) sim.Duration {
	d.stats.P2PWriteBytes += int64(n)
	return d.Spec.P2PWriteOverhead
}

// --- BAR1 ------------------------------------------------------------------

// BAR1Map maps n bytes of device memory into the BAR1 aperture, returning
// an error when the aperture is exhausted (it is a scarce resource: a few
// hundred MB on 32-bit-BIOS platforms). The caller pays Spec.BAR1MapCost,
// modeling the full GPU reconfiguration the paper mentions.
func (d *Device) BAR1Map(p *sim.Proc, n units.ByteSize) error {
	if d.bar1Mapped+n > d.Spec.BAR1Size {
		return fmt.Errorf("gpu %s: BAR1 aperture exhausted (%v mapped, %v requested, %v total)",
			d.Name, d.bar1Mapped, n, d.Spec.BAR1Size)
	}
	d.bar1Mapped += n
	p.Sleep(d.Spec.BAR1MapCost)
	return nil
}

// BAR1Unmap releases n bytes of aperture.
func (d *Device) BAR1Unmap(n units.ByteSize) {
	if n > d.bar1Mapped {
		panic("gpu: BAR1 unmap underflow")
	}
	d.bar1Mapped -= n
}

// BAR1Reader builds a split-transaction read engine against this GPU's
// BAR1 aperture for the given initiator. On Fermi the aperture sustains a
// single small outstanding read (≈150 MB/s); on Kepler it behaves like a
// normal PCIe target (≈1.6 GB/s).
func (d *Device) BAR1Reader(fab *pcie.Fabric, initiator *pcie.Device) *pcie.Reader {
	r := fab.NewReader(initiator, d.PCI, d.Spec.BAR1Outstanding, d.Spec.BAR1ReadChunk)
	return r
}

// CountBAR1Read records n bytes read through BAR1 (for stats).
func (d *Device) CountBAR1Read(n units.ByteSize) { d.stats.BAR1ReadBytes += int64(n) }

// --- Copy engines (cudaMemcpy backend) --------------------------------------

// CopyDir is a DMA direction.
type CopyDir int

const (
	D2H CopyDir = iota
	H2D
)

// DMATransfer books n bytes on the direction's copy engine, streaming over
// the given PCIe path at the engine rate, starting no earlier than from.
// It returns when the transfer completes on the wire. Callers add API
// overheads (sync vs async) on top; see the cuda package.
func (d *Device) DMATransfer(from sim.Time, dir CopyDir, n units.ByteSize, path *pcie.Path) sim.Time {
	if n <= 0 {
		return from
	}
	busy := &d.dmaD2HBusyUntil
	if dir == H2D {
		busy = &d.dmaH2DBusyUntil
		d.stats.MemcpyH2DBytes += int64(n)
	} else {
		d.stats.MemcpyD2HBytes += int64(n)
	}
	start := from
	if *busy > start {
		start = *busy
	}
	_, last := path.Stream(start, n, d.Spec.DMABandwidth, 4*units.KB)
	*busy = last
	return last
}

// CountKernel records a kernel launch.
func (d *Device) CountKernel() { d.stats.KernelLaunches++ }
