package faults

import (
	"reflect"
	"strings"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/disk"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
)

func secs(s float64) simtime.Duration { return simtime.Duration(s * float64(simtime.Second)) }

func TestGenerateDeterministic(t *testing.T) {
	kinds := []Kind{DiskDegrade, DiskStall, DiskMediaErrors, IRQStorm, TimerJitter, PriorityInversion, CachePressure}
	a := Generate(42, secs(60), kinds...)
	b := Generate(42, secs(60), kinds...)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\nvs\n%v", a, b)
	}
	c := Generate(43, secs(60), kinds...)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatalf("different seeds produced identical plans")
	}
	if len(a.Faults) != len(kinds) {
		t.Fatalf("plan has %d faults, want %d", len(a.Faults), len(kinds))
	}
	for _, f := range a.Faults {
		if f.Start <= 0 || f.Duration <= 0 {
			t.Fatalf("fault %v has non-positive window", f)
		}
		if f.End() > simtime.Time(secs(60)) {
			t.Fatalf("fault %v runs past the span", f)
		}
	}
}

// A kind's window depends only on (seed, kind): adding kinds to a plan
// must not move the windows of the kinds already there.
func TestGenerateKindsIndependent(t *testing.T) {
	solo := Generate(7, secs(60), DiskDegrade)
	both := Generate(7, secs(60), DiskDegrade, IRQStorm)
	var fromBoth Fault
	for _, f := range both.Faults {
		if f.Kind == DiskDegrade {
			fromBoth = f
		}
	}
	if solo.Faults[0] != fromBoth {
		t.Fatalf("DiskDegrade window moved when IRQStorm joined the plan: %v vs %v", solo.Faults[0], fromBoth)
	}
}

func TestFaultActiveAndStrings(t *testing.T) {
	f := Fault{Kind: DiskDegrade, Start: simtime.Time(secs(5)), Duration: secs(2), Magnitude: 4}
	if f.Active(simtime.Time(secs(4.9))) || !f.Active(simtime.Time(secs(5))) ||
		!f.Active(simtime.Time(secs(6.9))) || f.Active(f.End()) {
		t.Fatalf("Active window boundaries wrong for %v", f)
	}
	if !strings.Contains(f.String(), "disk-degrade") {
		t.Fatalf("Fault.String %q missing kind", f.String())
	}
	if (Plan{}).String() != "(no faults)" {
		t.Fatalf("empty plan renders %q", (Plan{}).String())
	}
	p := Generate(1, secs(10), DiskStall, CachePressure)
	if got := p.String(); !strings.Contains(got, "disk-stall") || !strings.Contains(got, "cache-pressure") {
		t.Fatalf("plan render missing kinds:\n%s", got)
	}
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestClockDiskFaultModel(t *testing.T) {
	plan := Plan{Seed: 9, Faults: []Fault{
		{Kind: DiskDegrade, Start: simtime.Time(secs(1)), Duration: secs(1), Magnitude: 5},
		{Kind: DiskStall, Start: simtime.Time(secs(3)), Duration: secs(1)},
		{Kind: DiskMediaErrors, Start: simtime.Time(secs(5)), Duration: secs(1), Magnitude: 1},
	}}
	c := NewClock(plan)
	if got := c.ServiceFactor(simtime.Time(secs(1.5))); got != 5 {
		t.Fatalf("ServiceFactor in window = %v, want 5", got)
	}
	if got := c.ServiceFactor(simtime.Time(secs(2.5))); got != 1 {
		t.Fatalf("ServiceFactor outside window = %v, want 1", got)
	}
	at := simtime.Time(secs(3.5))
	if got := c.StallUntil(at); got != simtime.Time(secs(4)) {
		t.Fatalf("StallUntil in window = %v, want 4s", got)
	}
	if got := c.StallUntil(simtime.Time(secs(4.5))); got > simtime.Time(secs(4.5)) {
		t.Fatalf("StallUntil outside window = %v, should not stall", got)
	}
	// Magnitude 1 on attempt 0 means probability 1: always fails.
	if !c.AttemptFails(disk.Read, 0, simtime.Time(secs(5.5)), 0) {
		t.Fatalf("AttemptFails with p=1 returned false")
	}
	if c.AttemptFails(disk.Read, 0, simtime.Time(secs(6.5)), 0) {
		t.Fatalf("AttemptFails outside window returned true")
	}
}

// Arm on a live kernel: the storm steals CPU via extra interrupts,
// jitter stretches the tick grid, and pressure evicts resident pages.
func TestArmInjectsKernelFaults(t *testing.T) {
	boot := func(armed bool) *kernel.Kernel {
		k := kernel.New(kernel.DefaultConfig())
		id := k.Cache().AddFile("blob", 0, 400)
		k.At(1, func(simtime.Time) {
			k.Cache().Read(id, 0, 300, func(simtime.Time, error) {})
		})
		if armed {
			plan := Generate(11, secs(10), IRQStorm, TimerJitter, CachePressure)
			NewClock(plan).Arm(Target{K: k})
		}
		k.Run(simtime.Time(secs(12)))
		return k
	}
	clean := boot(false)
	faulty := boot(true)

	cleanIntr := clean.CPU().Count(cpu.Interrupts)
	faultyIntr := faulty.CPU().Count(cpu.Interrupts)
	if faultyIntr < cleanIntr+500 {
		t.Fatalf("storm raised too few interrupts: clean=%d faulty=%d", cleanIntr, faultyIntr)
	}
	if faulty.ClockTicks() >= clean.ClockTicks() {
		t.Fatalf("jitter should slow the tick grid: clean=%d faulty=%d ticks",
			clean.ClockTicks(), faulty.ClockTicks())
	}
	if clean.Cache().ForcedEvictions() != 0 {
		t.Fatalf("clean run saw %d forced evictions", clean.Cache().ForcedEvictions())
	}
	if faulty.Cache().ForcedEvictions() == 0 {
		t.Fatalf("pressure evicted nothing")
	}
}

func TestArmPriorityInversionWindow(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig())
	bg := k.Spawn("bg", kernel.KernelProc, 4, func(tc *kernel.TC) {
		for {
			tc.Sleep(50 * simtime.Millisecond)
		}
	})
	plan := Plan{Seed: 1, Faults: []Fault{
		{Kind: PriorityInversion, Start: simtime.Time(secs(1)), Duration: secs(1)},
	}}
	NewClock(plan).Arm(Target{K: k, Background: bg, BoostPrio: 10})
	k.Run(simtime.Time(secs(1.5)))
	if bg.Priority() != 10 {
		t.Fatalf("inside window priority = %d, want 10", bg.Priority())
	}
	k.Run(simtime.Time(secs(3)))
	if bg.Priority() != 4 {
		t.Fatalf("after window priority = %d, want 4 restored", bg.Priority())
	}
	k.Shutdown()
}

// Two machines armed with the same plan and workload evolve identically.
func TestArmedRunsReproducible(t *testing.T) {
	run := func() (int64, int64, int64, int64) {
		k := kernel.New(kernel.DefaultConfig())
		id := k.Cache().AddFile("blob", 0, 400)
		for i := 0; i < 20; i++ {
			at := simtime.Time(secs(0.4 + 0.4*float64(i)))
			k.At(at, func(simtime.Time) {
				k.Cache().EvictOldest(400) // force every read cold
				k.Cache().Read(id, 0, 300, func(simtime.Time, error) {})
			})
		}
		plan := Generate(23, secs(10), DiskDegrade, DiskMediaErrors, IRQStorm, CachePressure)
		NewClock(plan).Arm(Target{K: k})
		k.Run(simtime.Time(secs(12)))
		return k.Disk().Retries(), k.Disk().MediaErrors(), k.IOErrors(), k.CPU().Count(cpu.Interrupts)
	}
	r1, m1, e1, i1 := run()
	r2, m2, e2, i2 := run()
	if r1 != r2 || m1 != m2 || e1 != e2 || i1 != i2 {
		t.Fatalf("armed runs diverged: (%d %d %d %d) vs (%d %d %d %d)", r1, m1, e1, i1, r2, m2, e2, i2)
	}
	if r1 == 0 {
		t.Fatalf("media-error window caused no retries — workload missed the window")
	}
}

// An armed empty plan must be indistinguishable from never constructing
// a Clock at all — this is the guard behind "faults disabled leaves the
// goldens byte-identical".
func TestArmEmptyPlanIsNoOp(t *testing.T) {
	NewClock(Plan{}).Arm(Target{}) // nil kernel tolerated: nothing to install
	run := func(arm bool) (int64, int64, int64, simtime.Time) {
		k := kernel.New(kernel.DefaultConfig())
		id := k.Cache().AddFile("blob", 0, 64)
		k.At(simtime.Time(secs(0.5)), func(simtime.Time) {
			k.Cache().Read(id, 0, 64, func(simtime.Time, error) {})
		})
		if arm {
			NewClock(Plan{}).Arm(Target{K: k})
		}
		k.Run(simtime.Time(secs(2)))
		return k.Disk().Retries(), k.CPU().Count(cpu.Interrupts), k.ClockTicks(), k.Now()
	}
	r0, i0, t0, n0 := run(false)
	r1, i1, t1, n1 := run(true)
	if r0 != r1 || i0 != i1 || t0 != t1 || n0 != n1 {
		t.Fatalf("armed empty plan diverged from unarmed run: (%d %d %d %v) vs (%d %d %d %v)",
			r0, i0, t0, n0, r1, i1, t1, n1)
	}
	if r1 != 0 {
		t.Fatalf("empty plan caused %d disk retries", r1)
	}
}
