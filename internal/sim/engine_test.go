package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.After(3*Nanosecond, func() { got = append(got, 3) })
	e.After(1*Nanosecond, func() { got = append(got, 1) })
	e.After(2*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != Time(3*Nanosecond) {
		t.Fatalf("final time = %v, want 3ns", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.After(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New()
	e.After(Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(0, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(Duration(i)*Microsecond, func() { count++ })
	}
	e.RunUntil(Time(5 * Microsecond))
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("now = %v, want 5us", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 50 {
			e.After(Nanosecond, recurse)
		}
	}
	e.After(0, recurse)
	e.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
}

// Property: for any set of (delay, id) pairs, execution order is sorted by
// delay with insertion order breaking ties.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		type rec struct {
			d   Duration
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, dd := i, Duration(d)*Nanosecond
			e.After(dd, func() { got = append(got, rec{dd, i}) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].d < got[i-1].d {
				return false
			}
			if got[i].d == got[i-1].d && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{285 * Picosecond, "285ps"},
		{80 * Nanosecond, "80ns"},
		{1800 * Nanosecond, "1.8us"},
		{3200 * Nanosecond, "3.2us"},
		{663040 * Nanosecond, "663.04us"},
		{Duration(1.5 * float64(Millisecond)), "1.5ms"},
		{2 * Second, "2s"},
		{-80 * Nanosecond, "-80ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(us int32) bool {
		d := FromMicros(float64(us))
		return d == Duration(us)*Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
