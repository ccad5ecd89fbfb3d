package nios

import (
	"testing"

	"apenetsim/internal/sim"
)

func TestExecSerializesTasks(t *testing.T) {
	eng := sim.New()
	cpu := New(eng, "nios", 200)
	rx, tx := cpu.NewSlot(), cpu.NewSlot()
	var rxDone, txDone sim.Time
	eng.At(0, func() {
		cpu.Exec(rx, "RX", 3*sim.Microsecond, func() { rxDone = eng.Now() })
	})
	eng.At(0, func() {
		cpu.Exec(tx, "GPU_P2P_TX", 2*sim.Microsecond, func() { txDone = eng.Now() })
	})
	eng.Run()
	// Both started at t=0 but must serialize: 3us then 2us.
	if rxDone != sim.Time(3*sim.Microsecond) {
		t.Fatalf("rx done at %v", rxDone)
	}
	if txDone != sim.Time(5*sim.Microsecond) {
		t.Fatalf("tx done at %v (no serialization?)", txDone)
	}
}

func TestClockScaling(t *testing.T) {
	eng := sim.New()
	fast := New(eng, "nios400", 400)
	if got := fast.Scale(3 * sim.Microsecond); got != 1500*sim.Nanosecond {
		t.Fatalf("400 MHz scale = %v, want 1.5us", got)
	}
	slow := New(eng, "nios100", 100)
	if got := slow.Scale(3 * sim.Microsecond); got != 6*sim.Microsecond {
		t.Fatalf("100 MHz scale = %v, want 6us", got)
	}
}

func TestAccounting(t *testing.T) {
	eng := sim.New()
	cpu := New(eng, "nios", 200)
	slot := cpu.NewSlot()
	// One engine runs five RX tasks, then a TX task, each continuing from
	// the last one's completion.
	runs := 0
	var next func()
	next = func() {
		runs++
		switch {
		case runs <= 5:
			cpu.Exec(slot, "RX", sim.Microsecond, next)
		case runs == 6:
			cpu.Exec(slot, "TX", 2*sim.Microsecond, next)
		}
	}
	eng.At(0, next)
	eng.Run()
	if cpu.BusyTime("RX") != 5*sim.Microsecond || cpu.Runs("RX") != 5 {
		t.Fatalf("RX accounting: %v/%d", cpu.BusyTime("RX"), cpu.Runs("RX"))
	}
	if cpu.TotalBusy() != 7*sim.Microsecond {
		t.Fatalf("total = %v", cpu.TotalBusy())
	}
	tasks := cpu.ActiveTasks()
	if len(tasks) != 2 || tasks[0].Task != "RX" || tasks[1].Task != "TX" {
		t.Fatalf("active tasks = %+v", tasks)
	}
	if u := cpu.Utilization(eng.Now()); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f", u)
	}
	ru := cpu.TaskUtilization("RX", eng.Now())
	if want := 5.0 / 7.0; ru < want-0.01 || ru > want+0.01 {
		t.Fatalf("RX task utilization = %f, want ~%f", ru, want)
	}
	if cpu.TaskUtilization("RX", 0) != 0 || cpu.TaskUtilization("none", eng.Now()) != 0 {
		t.Fatal("degenerate task utilizations should be 0")
	}
	if !cpu.Exec(slot, "zero", 0, nil) || cpu.BusyTime("zero") != 0 || cpu.Runs("zero") != 0 {
		t.Fatal("zero-cost exec should be free and continue at once")
	}
	// Another slot's run of a task adds to the same task's account, also
	// under a task name built at run time.
	other := cpu.NewSlot()
	eng.At(eng.Now(), func() { cpu.Exec(other, string([]byte("RX")), 3*sim.Microsecond, func() {}) })
	eng.Run()
	if cpu.BusyTime("RX") != 8*sim.Microsecond || cpu.Runs("RX") != 6 || len(cpu.ActiveTasks()) != 2 ||
		cpu.TotalBusy() != 10*sim.Microsecond {
		t.Fatalf("RX across slots: %v/%d, tasks %+v", cpu.BusyTime("RX"), cpu.Runs("RX"), cpu.ActiveTasks())
	}
}
