package core

import (
	"testing"
	"testing/quick"

	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TXFIFOBytes = c.MaxPayload / 2 },
		func(c *Config) { c.TXVersion = 4 },
		func(c *Config) { c.TXVersion = 2; c.PrefetchWindow = 0 },
		func(c *Config) { c.ReadReqBytes = 0 },
		func(c *Config) { c.LinkBandwidth = 0 },
		func(c *Config) { c.HopLatency = 0 },
		func(c *Config) { c.HostReadOutstanding = 0 },
		func(c *Config) { c.GetRequestBytes = -1 },
		func(c *Config) { c.MaxOutstandingGets = -1 },
		func(c *Config) { c.GetRequestBytes = c.MaxPayload + 1 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestBufListLookupSemantics(t *testing.T) {
	bl := &BufList{}
	e1 := &BufEntry{Addr: 0x1000, Size: 4096, Kind: HostMem}
	e2 := &BufEntry{Addr: 0x8000, Size: 8192, Kind: HostMem}
	bl.Register(e1)
	bl.Register(e2)
	if got, scanned, ok := bl.Lookup(0x1000, 4096); !ok || got != e1 || scanned != 1 {
		t.Fatalf("lookup e1: %v %d %v", got, scanned, ok)
	}
	if got, scanned, ok := bl.Lookup(0x9000, 100); !ok || got != e2 || scanned != 2 {
		t.Fatalf("lookup e2: %v %d %v", got, scanned, ok)
	}
	// Out of range / overrun.
	if _, _, ok := bl.Lookup(0x1000, 4097); ok {
		t.Fatal("overrunning range matched")
	}
	if _, scanned, ok := bl.Lookup(0x99999, 1); ok || scanned != 2 {
		t.Fatal("missing address matched")
	}
	if !bl.Unregister(e1) || bl.Len() != 1 {
		t.Fatal("unregister failed")
	}
	if bl.Unregister(e1) {
		t.Fatal("double unregister succeeded")
	}
}

// Property: packetize covers the job exactly, each packet within
// MaxPayload, last flagged correctly.
func TestPacketizeProperty(t *testing.T) {
	cfg := DefaultConfig()
	c := &Card{Cfg: cfg}
	f := func(sizeRaw uint32) bool {
		size := units.ByteSize(sizeRaw%(8<<20)) + 1
		job := &TXJob{Bytes: size}
		pkts := c.packetize(job)
		var sum units.ByteSize
		for i, p := range pkts {
			if p.Bytes <= 0 || p.Bytes > cfg.MaxPayload {
				return false
			}
			if p.Seq != i {
				return false
			}
			if p.Last != (i == len(pkts)-1) {
				return false
			}
			sum += p.Bytes
		}
		return sum == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTXMethodAndMemKindStrings(t *testing.T) {
	if MethodP2P.String() != "P2P" || MethodBAR1.String() != "BAR1" {
		t.Fatal("method strings")
	}
	if HostMem.String() != "Host" || GPUMem.String() != "GPU" {
		t.Fatal("kind strings")
	}
}

func TestNetworkRegisterAndChannels(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng, torus.Dims{X: 4, Y: 2, Z: 1}, units.Gbps(28), 350*sim.Nanosecond)
	if net.Cards() != 0 {
		t.Fatal("fresh network has cards")
	}
	if net.LinkBandwidth() != units.Gbps(28) || net.HopLatency() != 350*sim.Nanosecond {
		t.Fatal("network parameters")
	}
}
