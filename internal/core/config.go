// Package core implements the paper's contribution: the APEnet+ network
// card with GPUDirect peer-to-peer support. It models the Network
// Interface (host TX DMA, 32 KB TX FIFO, packet injection), the three
// generations of the GPU_P2P_TX read engine, the router with its 3D-torus
// links and loop-back ports, and the RX RDMA logic whose firmware runs on
// the Nios II microcontroller (BUF_LIST validation, HOST_V2P/GPU_V2P
// translation).
//
// Everything performance-relevant is mechanistic: bandwidth ceilings and
// latencies in the paper's tables/figures emerge from the interaction of
// the modeled engines rather than being hard-coded results.
package core

import (
	"fmt"

	"apenetsim/internal/route"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
	"apenetsim/internal/v2p"
)

// TXMethod selects how the card reads GPU memory.
type TXMethod int

const (
	// MethodP2P uses the GPUDirect peer-to-peer mailbox protocol.
	MethodP2P TXMethod = iota
	// MethodBAR1 reads the GPU's BAR1 aperture with plain PCIe reads.
	MethodBAR1
)

func (m TXMethod) String() string {
	if m == MethodBAR1 {
		return "BAR1"
	}
	return "P2P"
}

// Config holds the card's hardware geometry and firmware costs. Firmware
// costs are specified at the Nios II reference clock (200 MHz) and scale
// with Config.NiosClockMHz.
type Config struct {
	// Packet geometry.
	MaxPayload  units.ByteSize // max packet payload (4 KB)
	HeaderBytes units.ByteSize // packet header carried on every hop
	TXFIFOBytes units.ByteSize // transmission buffer (32 KB)

	// GPU_P2P_TX read engine.
	TXVersion      int            // 1, 2 or 3
	PrefetchWindow units.ByteSize // v2: refill batch; v3: outstanding cap
	GPUTXMethod    TXMethod
	ReadReqBytes   units.ByteSize // GPU data returned per read request
	ReadReqTLP     units.ByteSize // wire size of one read request
	ReadReqEvery   sim.Duration   // HW request generator cadence (v2/v3)

	// Firmware costs (Nios II, at 200 MHz).
	NiosClockMHz   float64
	RXBufListBase  sim.Duration // fixed part of BUF_LIST validation
	RXPerBuffer    sim.Duration // per BUF_LIST entry scanned
	RXV2PWalk      sim.Duration // 4-level page-table walk (constant)
	RXCompletion   sim.Duration // per-message completion handling
	TXMsgSetupGPU  sim.Duration // per GPU-source message setup
	TXGPURearm     sim.Duration // engine retire/re-arm between GPU jobs
	TXPerPacketV2P sim.Duration // per-packet source V2P (runs concurrently)
	TXV1PerRequest sim.Duration // v1: software request generation per packet
	TXV2PerRefill  sim.Duration // v2: firmware kick per window refill

	// Non-Nios serial costs.
	RXDMASetup         sim.Duration // RX DMA programming per packet
	TXDriverPerMessage sim.Duration // host kernel driver, per message
	TXDriverPerPacket  sim.Duration // host kernel driver, per descriptor

	// RDMA GET request/response engine (see get.go). GetRequestBytes is
	// the wire payload of a request or error-reply control message;
	// GetRequestHandling and GetReadDMASetup are the responder firmware
	// costs (Nios II "GET" task) of parsing/validating a request and of
	// programming the read DMA; MaxOutstandingGets bounds the requester's
	// outstanding-request table (SubmitGet blocks when it is full, the
	// GET-side mirror of TX-queue backpressure). Zero values take the
	// defaults at card construction, so PUT-only configs are unchanged.
	GetRequestBytes    units.ByteSize
	GetRequestHandling sim.Duration
	GetReadDMASetup    sim.Duration
	MaxOutstandingGets int

	// Host-memory read DMA engine (TX of host buffers).
	HostReadOutstanding int
	HostReadChunk       units.ByteSize

	// Translation selects the RX address-translation engine each card
	// builds (see internal/v2p): the zero value keeps the paper's
	// firmware V2P walk; v2p.ModeTLB enables the 28 nm follow-up's
	// hardware TLB, whose hits bypass the Nios II.
	Translation v2p.Config

	// Routing selects the torus routing engine (see internal/route): the
	// zero value keeps the paper's dimension-ordered router — path- and
	// cost-identical to the historical behavior — while ModeAdaptive and
	// ModeFaultAware enable backlog-adaptive and degraded-link routing.
	// The network adopts the first registered card's setting.
	Routing route.Config

	// RXQueuePackets is the receive buffering per card; torus link-level
	// flow control stalls senders when a receiver runs out of credits,
	// which is how RX firmware speed backpressures the whole path.
	RXQueuePackets int

	// Torus links and internal switch.
	LinkBandwidth   units.Bandwidth
	HopLatency      sim.Duration // serdes + wire + router forwarding
	LoopbackLatency sim.Duration // internal switch turnaround
	SwitchBandwidth units.Bandwidth
	// FlushAtSwitch discards packets in the switch (the paper's
	// "memory read" test mode, Table I and Figs 4).
	FlushAtSwitch bool

	// Buffer registration costs (driver + firmware programming).
	RegHostCost sim.Duration
	RegGPUCost  sim.Duration

	// Account, when non-nil, aggregates the executed-step counts of every
	// engine a measurement builds for this configuration. The config is
	// already threaded through every benchmark helper and cluster
	// constructor, so per-experiment sim-cost accounting rides along here
	// instead of widening each signature.
	Account *sim.Account
}

// DefaultConfig returns the calibrated APEnet+ configuration: PCIe x8
// Gen2, 28 Gbps torus links, GPU_P2P_TX v3 with a 128 KB flow-control
// window, Nios II at 200 MHz. Firmware costs are set so that the
// quantities the paper states directly (≈3 µs RX processing per 4 KB
// packet, ≈2.4 GB/s host read, ≈6.3/8.2 µs H-H/G-G latency) come out of
// the mechanism.
func DefaultConfig() Config {
	return Config{
		MaxPayload:  4 * units.KB,
		HeaderBytes: 32,
		TXFIFOBytes: 32 * units.KB,

		TXVersion:      3,
		PrefetchWindow: 128 * units.KB,
		GPUTXMethod:    MethodP2P,
		ReadReqBytes:   128,
		ReadReqTLP:     32,
		ReadReqEvery:   80 * sim.Nanosecond,

		NiosClockMHz:   200,
		RXBufListBase:  sim.FromNanos(1200),
		RXPerBuffer:    sim.FromNanos(100),
		RXV2PWalk:      sim.FromNanos(1500),
		RXCompletion:   sim.FromNanos(600),
		TXMsgSetupGPU:  sim.FromNanos(800),
		TXGPURearm:     sim.FromNanos(3000),
		TXPerPacketV2P: sim.FromNanos(300),
		TXV1PerRequest: sim.FromNanos(2300),
		TXV2PerRefill:  sim.FromNanos(400),

		RXDMASetup:         sim.FromNanos(600),
		TXDriverPerMessage: sim.FromNanos(1000),
		TXDriverPerPacket:  sim.FromNanos(200),

		GetRequestBytes:    32,
		GetRequestHandling: sim.FromNanos(900),
		GetReadDMASetup:    sim.FromNanos(700),
		MaxOutstandingGets: 16,

		HostReadOutstanding: 7,
		HostReadChunk:       512,

		RXQueuePackets: 16,

		LinkBandwidth:   units.Gbps(28),
		HopLatency:      sim.FromNanos(350),
		LoopbackLatency: sim.FromNanos(200),
		SwitchBandwidth: 4000 * units.MBps,

		RegHostCost: sim.FromMicros(5),
		RegGPUCost:  sim.FromMicros(20),
	}
}

// Validate checks configuration consistency.
func (c *Config) Validate() error {
	switch {
	case c.MaxPayload <= 0 || c.TXFIFOBytes < c.MaxPayload:
		return fmt.Errorf("core: TX FIFO (%v) must hold at least one packet (%v)", c.TXFIFOBytes, c.MaxPayload)
	case c.TXVersion < 1 || c.TXVersion > 3:
		return fmt.Errorf("core: unknown GPU_P2P_TX version %d", c.TXVersion)
	case c.TXVersion >= 2 && c.PrefetchWindow <= 0:
		return fmt.Errorf("core: v%d requires a prefetch window", c.TXVersion)
	case c.ReadReqBytes <= 0 || c.ReadReqEvery <= 0:
		return fmt.Errorf("core: bad read request parameters")
	case c.LinkBandwidth <= 0 || c.NiosClockMHz <= 0:
		return fmt.Errorf("core: bad link bandwidth or Nios clock")
	case c.HopLatency <= 0:
		// The hop latency is the lookahead of the sim.Group every torus
		// runs in: without one, a hop booked for another shard could land
		// inside the window that produced it.
		return fmt.Errorf("core: hop latency must be positive (it is the group lookahead), got %v", c.HopLatency)
	case c.HostReadOutstanding <= 0 || c.HostReadChunk <= 0:
		return fmt.Errorf("core: bad host read DMA parameters")
	case c.GetRequestBytes < 0 || c.MaxOutstandingGets < 0:
		return fmt.Errorf("core: bad GET engine parameters")
	case c.GetRequestBytes > c.MaxPayload:
		// A request descriptor must fit one packet: the RX engine serves
		// a GET per arriving control packet.
		return fmt.Errorf("core: GET request descriptor (%v) exceeds packet payload (%v)", c.GetRequestBytes, c.MaxPayload)
	}
	if err := c.Routing.Validate(); err != nil {
		return err
	}
	return c.Translation.Validate()
}
