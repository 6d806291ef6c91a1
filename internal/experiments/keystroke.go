package experiments

import (
	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

// This file is the keystroke rig the ext-hw, ext-attrib and ext-modern
// families share: the paper's pipeline (§2, Fig. 2) reduced to one
// synthetic handler — inject key-downs at a fixed pitch, record with
// the idle loop and the message-API monitor, extract, and drop the
// cold trial.

// keySession shapes one keystroke session: count key-downs, one every
// gapMs starting at 500 ms, then tailMs of quiet time so the last event
// completes (and a DVFS governor decays).
type keySession struct {
	count         int
	gapMs, tailMs int64
	// pages are the handler's code pages, bound to its window.
	pages []uint64
	// spans attaches the span recorder before the handler spawns.
	spans bool
}

// sessionKeystrokes is the families' default session length.
func sessionKeystrokes(cfg Config) int {
	if cfg.Quick {
		return 8
	}
	return 24
}

// keyRun is a finished keystroke session whose machine is still booted.
type keyRun struct {
	r *rig
	// events are the handler's extracted events, the cold first one
	// included.
	events []core.Event
	// delta is every hardware counter's change over the run, ticks the
	// clock ticks taken over it.
	delta [cpu.NumEventKinds]int64
	ticks int64
}

// warm returns the warm events — all but the cold first trial — or nil
// when the run has fewer than two events.
func (k keyRun) warm() []core.Event {
	if len(k.events) < 2 {
		return nil
	}
	return k.events[1:]
}

// tlbMisses returns the run's ITLB plus DTLB misses.
func (k keyRun) tlbMisses() int64 {
	return k.delta[cpu.ITLBMisses] + k.delta[cpu.DTLBMisses]
}

// runKeystrokes boots persona p on prof, spawns a handler that runs
// body for every key-down, drives the session ks describes, and returns
// reduce's summary of the finished run. The machine shuts down after
// reduce returns.
func runKeystrokes[C any](cfg Config, p persona.P, prof machine.Profile, ks keySession,
	body func(r *rig, tc *kernel.TC), reduce func(k keyRun) C) C {
	endMs := 500 + int64(ks.count)*ks.gapMs + ks.tailMs
	r := newRigOn(cfg, p, prof, int(endMs/1000)+2)
	defer r.shutdown()
	if ks.spans {
		r.spansOn()
	}
	app := r.sys.SpawnApp("keystrokes", func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == kernel.WMQuit {
				return
			}
			if m.Kind == kernel.WMKeyDown {
				body(r, tc)
			}
		}
	})
	r.sys.Win.BindApp(ks.pages)
	for i := 0; i < ks.count; i++ {
		at := simtime.Time(500+int64(i)*ks.gapMs) * simtime.Time(simtime.Millisecond)
		r.sys.K.At(at, func(simtime.Time) { r.sys.Inject(kernel.WMKeyDown, 'a', false) })
	}
	before, ticks := r.sys.K.CPU().Snapshot(), r.sys.K.ClockTicks()
	r.sys.K.Run(simtime.Time(endMs) * simtime.Time(simtime.Millisecond))
	after := r.sys.K.CPU().Snapshot()
	k := keyRun{r: r, events: r.extract(app, false), ticks: r.sys.K.ClockTicks() - ticks}
	for i := range k.delta {
		k.delta[i] = after[i] - before[i]
	}
	return reduce(k)
}

// streamingRender is a redraw handler: echo one character through the
// persona's Win32 path (TextOut: two crossings on NT 3.51, none
// elsewhere), then render seg over perEvent cache chunks drawn from a
// circular window of distinct chunks. With window == perEvent the
// working set is fixed and L2-resident (misses once, then warm); with
// window much larger than the L2 the handler streams and every
// reference goes to DRAM on every event — the knob that makes an event
// compute-bound or memory-bound on a given machine.
func streamingRender(seg cpu.Segment, perEvent, window int) func(r *rig, tc *kernel.TC) {
	pos := 0
	return func(r *rig, tc *kernel.TC) {
		r.sys.Win.TextOut(tc, 1)
		s := seg
		s.CacheChunks = make([]uint64, perEvent)
		for i := range s.CacheChunks {
			s.CacheChunks[i] = 100_000 + uint64((pos+i)%window)
		}
		pos = (pos + perEvent) % window
		tc.Compute(s)
	}
}

// crossingPages are the crossing workload's code pages.
var crossingPages = []uint64{320, 321}

// crossingWork is the crossing workload, shared by ext-hw-tlb and
// ext-attrib: each keystroke makes calls Win32 calls, and after every
// call the application recomputes over a 48-page data window. On NT
// 3.51's untagged machine the return crossing has flushed the DTLB, so
// that window refills on every call; NT 4.0 pays one refill per event
// (the process-switch flush), and a tagged TLB pays none.
func crossingWork(calls int) func(r *rig, tc *kernel.TC) {
	appData := make([]uint64, 48)
	for i := range appData {
		appData[i] = 1500 + uint64(i)
	}
	work := cpu.Segment{
		Name: "hw-crosswork", BaseCycles: 6000,
		Instructions: 3600, DataRefs: 1800,
		CodePages: crossingPages, DataPages: appData,
	}
	return func(r *rig, tc *kernel.TC) {
		for i := 0; i < calls; i++ {
			r.sys.Win.DefWindowProc(tc)
			tc.Compute(work)
		}
	}
}

// latenciesMs returns the events' latencies in milliseconds.
func latenciesMs(events []core.Event) []float64 {
	ms := make([]float64, len(events))
	for i, ev := range events {
		ms[i] = ev.Latency.Milliseconds()
	}
	return ms
}
