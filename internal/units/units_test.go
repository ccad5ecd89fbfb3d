package units

import (
	"math"
	"testing"
	"testing/quick"

	"apenetsim/internal/sim"
)

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		s    ByteSize
		want string
	}{
		{32, "32"},
		{512, "512"},
		{4 * KB, "4K"},
		{32 * KB, "32K"},
		{1 * MB, "1M"},
		{4 * MB, "4M"},
		{3 * GB, "3G"},
		{4*KB + 1, "4097"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%d: got %q want %q", int64(c.s), got, c.want)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	if got := Bandwidth(1536 * 1e6).String(); got != "1.54 GB/s" {
		t.Errorf("got %q", got)
	}
	if got := Bandwidth(600 * 1e6).String(); got != "600.0 MB/s" {
		t.Errorf("got %q", got)
	}
}

func TestGbps(t *testing.T) {
	// 28 Gbps torus link = 3.5 GB/s raw.
	if got := Gbps(28); math.Abs(float64(got)-3.5e9) > 1 {
		t.Errorf("Gbps(28) = %v", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 4 KB at 1536 MB/s = 2.666 us.
	d := TransferTime(4*KB, 1536*MBps)
	want := sim.FromNanos(4096.0 / 1536e6 * 1e9)
	if d != want {
		t.Errorf("TransferTime = %v, want %v", d, want)
	}
	if TransferTime(0, MBps) != 0 {
		t.Error("zero bytes should take zero time")
	}
}

func TestRateInvertsTransferTime(t *testing.T) {
	f := func(kb uint16, mbps uint16) bool {
		n := ByteSize(int64(kb)+1) * KB
		b := Bandwidth(float64(mbps)+1) * MBps
		d := TransferTime(n, b)
		got := Rate(n, d)
		// TransferTime rounds to whole picoseconds, the simulator's clock,
		// so the rate comes back to within half a picosecond over the
		// transfer time, plus float slack.
		return math.Abs(float64(got)-float64(b))/float64(b) <= 0.5/float64(d)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(4*KB, 32*KB)
	want := []ByteSize{4 * KB, 8 * KB, 16 * KB, 32 * KB}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestPowersOfTwoBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non power-of-two range")
		}
	}()
	PowersOfTwo(4*KB, 33*KB)
}

func TestParseByteSizeRoundTrip(t *testing.T) {
	for _, s := range []ByteSize{0, 1, 32, 1000, 4 * KB, 32 * KB, 1 * MB, 4 * MB, 2 * GB, -4 * KB} {
		got, err := ParseByteSize(s.String())
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("ParseByteSize(%q) = %v, want %v", s.String(), got, s)
		}
	}
}

func TestParseByteSizeForms(t *testing.T) {
	cases := []struct {
		in   string
		want ByteSize
	}{
		{"32", 32}, {"32B", 32}, {"4K", 4 * KB}, {"4KB", 4 * KB},
		{"1M", 1 * MB}, {"1MB", 1 * MB}, {"2G", 2 * GB}, {"2GB", 2 * GB},
		// The largest sizes each suffix can carry without overflowing.
		{"9223372036854775807", math.MaxInt64},
		{"8589934591G", 8589934591 * GB}, {"-8589934591G", -8589934591 * GB},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseByteSize(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "K", "4X", "4.5K", "x32", "-",
		// n * suffix overflows int64: rejected, never wrapped negative.
		"8589934592G", "-8589934592G", "8796093022208M", "9007199254740992K",
		"9223372036854775808"} {
		if got, err := ParseByteSize(bad); err == nil {
			t.Fatalf("ParseByteSize(%q) accepted as %d", bad, int64(got))
		}
	}
}

// FuzzParseByteSize checks that every size the parser accepts renders
// through String and parses back to itself; the seed corpus lives in
// testdata/fuzz/FuzzParseByteSize. Run with
// `go test -fuzz FuzzParseByteSize ./internal/units`.
func FuzzParseByteSize(f *testing.F) {
	for _, s := range []string{"0", "32", "4K", "1MB", "2G", "-4K", "8589934591G", "8589934592G", "1000"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseByteSize(s)
		if err != nil {
			return
		}
		back, err := ParseByteSize(v.String())
		if err != nil {
			t.Fatalf("ParseByteSize(%q) = %d, but its rendering %q does not parse: %v", s, int64(v), v.String(), err)
		}
		if back != v {
			t.Fatalf("ParseByteSize(%q) = %d, round trip through %q gives %d", s, int64(v), v.String(), int64(back))
		}
	})
}

func TestByteSizeTextMarshal(t *testing.T) {
	b, err := (32 * KB).MarshalText()
	if err != nil || string(b) != "32K" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var s ByteSize
	if err := s.UnmarshalText([]byte("1M")); err != nil || s != 1*MB {
		t.Fatalf("UnmarshalText = %v, %v", s, err)
	}
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted bogus input")
	}
}
