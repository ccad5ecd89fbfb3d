// Package units provides byte sizes, bandwidths, and the arithmetic that
// converts between bytes, rates and simulated time. All benchmark reporting
// in this repository uses these types so figures print with the paper's
// conventions (MB/s, powers-of-two message sizes).
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"apenetsim/internal/sim"
)

// ByteSize is a size in bytes.
type ByteSize int64

// Common sizes (binary powers, matching the paper's axes).
const (
	B  ByteSize = 1
	KB          = 1024 * B
	MB          = 1024 * KB
	GB          = 1024 * MB
)

// String formats a byte size the way the paper labels its axes:
// 32, 128, 4K, 32K, 1M, 4M.
func (s ByteSize) String() string {
	switch {
	case s < 0:
		return "-" + (-s).String()
	case s >= GB && s%GB == 0:
		return fmt.Sprintf("%dG", s/GB)
	case s >= MB && s%MB == 0:
		return fmt.Sprintf("%dM", s/MB)
	case s >= KB && s%KB == 0:
		return fmt.Sprintf("%dK", s/KB)
	default:
		return fmt.Sprintf("%d", int64(s))
	}
}

// ParseByteSize parses the paper-style rendering of a size: a plain byte
// count or a number with a K/M/G (or KB/MB/GB) binary suffix, e.g. "32",
// "4K", "1M". It is the inverse of ByteSize.String.
func ParseByteSize(s string) (ByteSize, error) {
	orig := s
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return 0, fmt.Errorf("units: bad size %q", orig)
	}
	n, err := strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad size %q: %v", orig, err)
	}
	var mult ByteSize
	switch s[i:] {
	case "", "B":
		mult = B
	case "K", "KB":
		mult = KB
	case "M", "MB":
		mult = MB
	case "G", "GB":
		mult = GB
	default:
		return 0, fmt.Errorf("units: bad size suffix %q in %q", s[i:], orig)
	}
	if n > math.MaxInt64/int64(mult) {
		return 0, fmt.Errorf("units: size %q overflows int64 bytes", orig)
	}
	v := ByteSize(n) * mult
	if neg {
		v = -v
	}
	return v, nil
}

// MarshalText renders the size in the paper's notation, so byte sizes
// embedded in JSON reports round-trip as "32K" rather than raw counts.
func (s ByteSize) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the paper's notation.
func (s *ByteSize) UnmarshalText(b []byte) error {
	v, err := ParseByteSize(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth float64

// Common rates. MBps/GBps are decimal (1e6/1e9), matching how the paper
// quotes "1.5 GB/s" and "MB/s" plot axes.
const (
	BytePerSecond Bandwidth = 1
	KBps                    = 1e3 * BytePerSecond
	MBps                    = 1e6 * BytePerSecond
	GBps                    = 1e9 * BytePerSecond
)

// Gbps converts a link signaling rate in gigabits/s to a Bandwidth.
func Gbps(g float64) Bandwidth { return Bandwidth(g * 1e9 / 8) }

// String formats the bandwidth adaptively ("1536 MB/s", "2.4 GB/s").
func (b Bandwidth) String() string {
	switch {
	case b >= GBps:
		return fmt.Sprintf("%.2f GB/s", float64(b)/1e9)
	case b >= MBps:
		return fmt.Sprintf("%.1f MB/s", float64(b)/1e6)
	case b >= KBps:
		return fmt.Sprintf("%.1f KB/s", float64(b)/1e3)
	default:
		return fmt.Sprintf("%.1f B/s", float64(b))
	}
}

// MBpsValue returns the bandwidth as a float64 number of MB/s (decimal),
// the unit of every bandwidth plot in the paper.
func (b Bandwidth) MBpsValue() float64 { return float64(b) / 1e6 }

// TransferTime returns the time to move n bytes at rate b, rounded to the
// nearest picosecond.
func TransferTime(n ByteSize, b Bandwidth) sim.Duration {
	if b <= 0 {
		panic("units: non-positive bandwidth")
	}
	if n <= 0 {
		return 0
	}
	return sim.FromSeconds(float64(n) / float64(b))
}

// Rate returns the bandwidth achieved moving n bytes in d.
func Rate(n ByteSize, d sim.Duration) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(float64(n) / d.Seconds())
}

// PowersOfTwo returns the sizes lo, 2*lo, ..., hi (inclusive); it panics
// unless lo and hi are positive with hi a power-of-two multiple of lo.
// It generates the message-size axes of the paper's sweeps.
func PowersOfTwo(lo, hi ByteSize) []ByteSize {
	if lo <= 0 || hi < lo {
		panic("units: bad range")
	}
	var out []ByteSize
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	if out[len(out)-1] != hi {
		panic("units: hi is not a power-of-two multiple of lo")
	}
	return out
}
