package core

import (
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// engineScenario boots a kernel on the given engine, runs the idle-loop
// instrument against a periodically bursting worker for two seconds, and
// returns the machine's observable end state. The worker's bursts and
// sleeps exercise the straddling-cycle path: every elided span ends at a
// tick, wakeup, or completion, and the cycle crossing it is simulated.
func engineScenario(t *testing.T, eng kernel.Engine) (*kernel.Kernel, []trace.IdleSample) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Engine = eng
	k := kernel.New(cfg)
	il := StartIdleLoop(k, 4096)
	burst := cpu.Segment{
		Name:         "burst",
		BaseCycles:   300_000,
		Instructions: 200_000,
		DataRefs:     50_000,
		CodePages:    []uint64{7, 8},
		DataPages:    []uint64{9, 10, 11},
	}
	k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
		for i := 0; i < 8; i++ {
			tc.Sleep(150 * simtime.Millisecond)
			tc.Compute(burst)
		}
	})
	k.Run(simtime.Time(2 * simtime.Second))
	k.Shutdown()
	return k, il.Samples()
}

// TestEngineEquivalence is the end-to-end exactness proof at the kernel
// level: the batched engine (idle skipping) must leave the machine in a
// state indistinguishable from the reference engine —
// identical idle-sample traces, hardware counters, tick counts, and
// busy-time accounting — while actually having elided work.
func TestEngineEquivalence(t *testing.T) {
	kr, ref := engineScenario(t, kernel.Engine{})
	kb, bat := engineScenario(t, kernel.BatchedEngine())

	if kb.BulkElided() == 0 {
		t.Fatalf("batched engine elided no idle cycles — the equivalence check is vacuous")
	}
	if kr.BulkElided() != 0 {
		t.Fatalf("reference engine elided %d cycles, want 0", kr.BulkElided())
	}
	if len(ref) != len(bat) {
		t.Fatalf("sample count diverged: reference %d, batched %d", len(ref), len(bat))
	}
	for i := range ref {
		if ref[i] != bat[i] {
			t.Fatalf("sample %d diverged: reference %+v, batched %+v", i, ref[i], bat[i])
		}
	}
	if a, b := kr.ClockTicks(), kb.ClockTicks(); a != b {
		t.Fatalf("clock ticks diverged: %d vs %d", a, b)
	}
	if a, b := kr.NonIdleBusyTime(), kb.NonIdleBusyTime(); a != b {
		t.Fatalf("busy time diverged: %v vs %v", a, b)
	}
	refSnap := kr.CPU().Snapshot()
	batSnap := kb.CPU().Snapshot()
	for kind := range refSnap {
		if refSnap[kind] != batSnap[kind] {
			t.Fatalf("counter %v diverged: reference %d, batched %d",
				cpu.EventKind(kind), refSnap[kind], batSnap[kind])
		}
	}
}

// TestEngineEquivalenceModernMachine re-proves engine equivalence on the
// 2026 profile, where three new mechanisms interact with idle elision:
// DVFS transitions re-price the idle loop's cycles (the sigClock guard
// must dirty stale signatures), auxiliary-core housekeeping events land
// inside otherwise-idle stretches, and disk-interrupt coalescing timers
// sit on the event queue. The batched engine must still elide work and
// still match the reference byte for byte.
func TestEngineEquivalenceModernMachine(t *testing.T) {
	run := func(eng kernel.Engine) ([]trace.IdleSample, *kernel.Kernel) {
		cfg := kernel.DefaultConfig()
		cfg.Machine = machine.Modern2026()
		cfg.Engine = eng
		k := kernel.New(cfg)
		il := StartIdleLoop(k, 8192)
		sleep := true
		k.SpawnLoopOn("housekeep", kernel.KernelProc, 4, 1, func(lc *kernel.LoopTC) bool {
			if sleep {
				lc.Sleep(170 * simtime.Millisecond)
			} else {
				lc.Compute(cpu.Segment{Name: "scrub", BaseCycles: 400_000, CodePages: []uint64{31}, CacheChunks: []uint64{77, 78}})
			}
			sleep = !sleep
			return true
		})
		k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
			for i := 0; i < 6; i++ {
				tc.Sleep(220 * simtime.Millisecond)
				tc.Compute(cpu.Segment{Name: "burst", BaseCycles: 5_000_000, Instructions: 3_000_000})
			}
		})
		k.Run(simtime.Time(2 * simtime.Second))
		k.Shutdown()
		return il.Samples(), k
	}
	ref, kr := run(kernel.Engine{})
	bat, kb := run(kernel.BatchedEngine())
	if kb.BulkElided() == 0 {
		t.Fatalf("batched engine elided nothing on the modern profile")
	}
	if len(ref) != len(bat) {
		t.Fatalf("sample count diverged: reference %d, batched %d", len(ref), len(bat))
	}
	for i := range ref {
		if ref[i] != bat[i] {
			t.Fatalf("sample %d diverged: reference %+v, batched %+v", i, ref[i], bat[i])
		}
	}
	if a, b := kr.NonIdleBusyTime(), kb.NonIdleBusyTime(); a != b {
		t.Fatalf("busy time diverged: %v vs %v", a, b)
	}
	if a, b := kr.AuxBusyTime(), kb.AuxBusyTime(); a != b || a == 0 {
		t.Fatalf("aux busy diverged or vanished: %v vs %v", a, b)
	}
	if a, b := kr.CPU().Clock(), kb.CPU().Clock(); a != b {
		t.Fatalf("governor clock diverged: %v vs %v", a, b)
	}
}

// TestEngineEquivalenceQuantumStraddle pins the subtlest piece of the
// elision replay: idle cycles whose compute chunks straddle scheduler
// quantum boundaries must replicate the slow path's per-chunk completion
// events (sequence numbers) and leftover quantum. A 2.5 ms quantum slices
// each 1 ms idle cycle differently on every iteration.
func TestEngineEquivalenceQuantumStraddle(t *testing.T) {
	run := func(eng kernel.Engine) ([]trace.IdleSample, *kernel.Kernel) {
		cfg := kernel.DefaultConfig()
		cfg.Quantum = 2500 * simtime.Microsecond
		cfg.Engine = eng
		k := kernel.New(cfg)
		il := StartIdleLoop(k, 4096)
		k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
			for i := 0; i < 4; i++ {
				tc.Sleep(300 * simtime.Millisecond)
				tc.Compute(cpu.Segment{Name: "blip", BaseCycles: 50_000, Instructions: 30_000})
			}
		})
		k.Run(simtime.Time(1500 * simtime.Millisecond))
		k.Shutdown()
		return il.Samples(), k
	}
	ref, _ := run(kernel.Engine{})
	bat, kb := run(kernel.BatchedEngine())
	if kb.BulkElided() == 0 {
		t.Fatalf("no cycles elided under a straddling quantum")
	}
	if len(ref) != len(bat) {
		t.Fatalf("sample count diverged: reference %d, batched %d", len(ref), len(bat))
	}
	for i := range ref {
		if ref[i] != bat[i] {
			t.Fatalf("sample %d diverged: reference %+v, batched %+v", i, ref[i], bat[i])
		}
	}
}
