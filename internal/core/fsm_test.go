package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

func ms(f float64) simtime.Duration { return simtime.FromMillis(f) }
func at(f float64) simtime.Time     { return simtime.Time(simtime.FromMillis(f)) }

func TestFSMBasicTransitions(t *testing.T) {
	f := NewFSM()
	if f.cur != Think {
		t.Fatalf("initial phase = %v", f.cur)
	}
	// Input arrives: queue non-empty → wait.
	f.SetQueue(1, at(100))
	if f.cur != Wait {
		t.Fatalf("queued input should mean wait")
	}
	// Dequeued, CPU handling it.
	f.SetQueue(0, at(101))
	f.SetCPU(true, at(101))
	if f.cur != Wait {
		t.Fatalf("busy CPU should mean wait")
	}
	// Handling done.
	f.SetCPU(false, at(110))
	if f.cur != Think {
		t.Fatalf("idle+empty+noio should mean think")
	}
	think, wait := f.Finish(at(200))
	if think != ms(100)+ms(90) {
		t.Fatalf("think = %v, want 190ms", think)
	}
	if wait != ms(10) {
		t.Fatalf("wait = %v, want 10ms", wait)
	}
	// Transition log: think→wait at 100, wait→think at 110.
	trs := f.Transitions()
	if len(trs) != 2 || trs[0].To != Wait || trs[0].At != at(100) || trs[1].To != Think || trs[1].At != at(110) {
		t.Fatalf("transitions = %+v", trs)
	}
}

func TestFSMSyncIOIsWait(t *testing.T) {
	// Paper §2.3: "synchronous I/O requests contribute to wait time, even
	// though the CPU can be idle during these operations."
	f := NewFSM()
	f.SetCPU(true, at(10))
	f.SetCPU(false, at(12))
	f.SetSyncIO(1, at(12)) // blocked on disk, CPU idle
	if f.cur != Wait {
		t.Fatalf("sync I/O with idle CPU must be wait")
	}
	f.SetSyncIO(0, at(30))
	_, wait := f.Finish(at(40))
	if wait != ms(20) {
		t.Fatalf("wait = %v, want 20ms (2 busy + 18 I/O)", wait)
	}
}

func TestFSMPhaseString(t *testing.T) {
	if Think.String() != "think" || Wait.String() != "wait" {
		t.Fatalf("phase names wrong")
	}
}

func TestFSMValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	f := NewFSM()
	f.SetCPU(true, at(10))
	mustPanic("time backwards", func() { f.SetCPU(false, at(5)) })
	mustPanic("negative queue", func() { NewFSM().SetQueue(-1, 0) })
	mustPanic("negative io", func() { NewFSM().SetSyncIO(-1, 0) })
}

// Property: think+wait always equals elapsed time, for any input script.
func TestFSMConservationProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		fsm := NewFSM()
		now := simtime.Time(0)
		for _, s := range steps {
			now = now.Add(simtime.Duration(s%1000) * simtime.Microsecond)
			switch s % 3 {
			case 0:
				fsm.SetCPU(s%2 == 0, now)
			case 1:
				fsm.SetQueue(int(s%4), now)
			case 2:
				fsm.SetSyncIO(int(s%2), now)
			}
		}
		end := now.Add(simtime.Millisecond)
		think, wait := fsm.Finish(end)
		return think+wait == simtime.Duration(end)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDriveFSMFromProbe(t *testing.T) {
	// End-to-end: an app handles one keystroke with a sync read; the FSM
	// driven from probe logs must classify wait = handling + I/O and
	// think = the rest.
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	pr := AttachProbe(k)
	file := k.Cache().AddFile("doc", 200_000, 32)
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			if m := tc.GetMessage(); m.Kind == kernel.WMQuit {
				return
			}
			tc.Compute(cpu.Segment{Name: "w", BaseCycles: 300_000}) // 3 ms
			tc.ReadFile(file, 0, 8)                                 // cold: tens of ms, CPU idle
		}
	})
	k.At(at(50), func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, 0) })
	k.At(at(500), func(simtime.Time) { k.PostMessage(app, kernel.WMQuit, 0) })
	end := k.Run(simtime.Time(600 * simtime.Millisecond))

	f := DriveFSM(pr, app.ID(), end)
	think, wait := f.ThinkTime(), f.WaitTime()
	if think+wait != simtime.Duration(end) {
		t.Fatalf("conservation: think %v + wait %v != %v", think, wait, end)
	}
	// Wait covers ~3ms compute + disk read (several ms) + quit handling;
	// I/O wait must be included despite the idle CPU.
	if wait < ms(6) || wait > ms(60) {
		t.Fatalf("wait = %v, want handling+disk ≈ 10-40ms", wait)
	}
	if think < ms(500) {
		t.Fatalf("think = %v, want the bulk of the 600ms run", think)
	}
}

func TestSpanHelpers(t *testing.T) {
	s := Span{Start: at(10), End: at(20)}
	if s.Duration() != ms(10) {
		t.Fatalf("duration = %v", s.Duration())
	}
	if !s.Contains(at(10)) || s.Contains(at(20)) || s.Contains(at(5)) {
		t.Fatalf("contains wrong")
	}
	if !s.Overlaps(Span{Start: at(19), End: at(30)}) {
		t.Fatalf("overlap wrong")
	}
	if s.Overlaps(Span{Start: at(20), End: at(30)}) {
		t.Fatalf("touching spans do not overlap")
	}
}

// groundTruthBusySpans converts a probe's busy transition log into
// closed spans, ending an open span at end if still busy.
func groundTruthBusySpans(p *Probe, end simtime.Time) []Span {
	var spans []Span
	var open *Span
	for _, b := range p.Busy {
		if b.Busy && open == nil {
			open = &Span{Start: b.At}
		} else if !b.Busy && open != nil {
			open.End = b.At
			spans = append(spans, *open)
			open = nil
		}
	}
	if open != nil {
		open.End = end
		spans = append(spans, *open)
	}
	return spans
}

func TestGroundTruthBusySpans(t *testing.T) {
	p := &Probe{Busy: []BusyChange{
		{Busy: true, At: at(10)},
		{Busy: false, At: at(15)},
		{Busy: true, At: at(40)},
	}}
	spans := groundTruthBusySpans(p, at(50))
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0] != (Span{Start: at(10), End: at(15)}) {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[1] != (Span{Start: at(40), End: at(50)}) {
		t.Fatalf("open span not closed at end: %+v", spans[1])
	}
}

// sortedEvent is one probe record as the replay oracle orders it: by
// time, then kind (0 busy, 1 queue, 2 sync I/O), then index in its own
// log.
type sortedEvent struct {
	at   simtime.Time
	seq  int
	kind int
	b    bool
	n    int
}

// sortedEvents is the reference replay order, by construction rather
// than by merge: the four logs appended in turn (busy, posts,
// message-API returns, sync I/O), then insertion-sorted by (time,
// kind, index). The sort is
// stable, so a post and a message-API return tied on all three keep
// the post first. TestDriveFSMMatchesSortOracle holds the merge to it.
func sortedEvents(p *Probe, thread int) []sortedEvent {
	var evs []sortedEvent
	for i, b := range p.Busy {
		evs = append(evs, sortedEvent{at: b.At, seq: i, kind: 0, b: b.Busy})
	}
	for i, post := range p.Posts {
		if post.Thread == thread {
			evs = append(evs, sortedEvent{at: post.At, seq: i, kind: 1, n: post.QueueLen})
		}
	}
	for i, m := range p.Msgs {
		if m.Thread == thread {
			evs = append(evs, sortedEvent{at: m.Return, seq: i, kind: 1, n: m.QueueLen})
		}
	}
	for i, s := range p.SyncIO {
		evs = append(evs, sortedEvent{at: s.At, seq: i, kind: 2, n: s.Outstanding})
	}
	less := func(a, b sortedEvent) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.seq < b.seq
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && less(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	return evs
}

// replaySorted feeds evs to a fresh FSM and finishes it at end.
func replaySorted(evs []sortedEvent, end simtime.Time) *FSM {
	f := NewFSM()
	for _, e := range evs {
		switch e.kind {
		case 0:
			f.SetCPU(e.b, e.at)
		case 1:
			f.SetQueue(e.n, e.at)
		case 2:
			f.SetSyncIO(e.n, e.at)
		}
	}
	f.Finish(end)
	return f
}

// randomProbe builds four time-ordered logs over two threads (1 and 2)
// from a handful of instants, so equal timestamps across and within
// kinds are common. Any log may be empty. A third of the probes copy
// the post log into the message log, which ties a post and a
// message-API return on time, thread and index.
func randomProbe(r *rand.Rand) *Probe {
	times := func() []simtime.Time {
		n := 0
		if r.Intn(5) > 0 {
			n = r.Intn(16)
		}
		ts := make([]simtime.Time, n)
		t := simtime.Time(0)
		for i := range ts {
			t = t.Add(simtime.Duration(r.Intn(3)) * simtime.Millisecond)
			ts[i] = t
		}
		return ts
	}
	p := &Probe{}
	for _, t := range times() {
		p.Busy = append(p.Busy, BusyChange{Busy: r.Intn(2) == 0, At: t})
	}
	for _, t := range times() {
		p.Posts = append(p.Posts, PostRecord{Thread: 1 + r.Intn(2), At: t, QueueLen: r.Intn(3)})
	}
	if r.Intn(3) == 0 {
		for _, post := range p.Posts {
			p.Msgs = append(p.Msgs, trace.MsgRecord{Thread: post.Thread, Return: post.At, QueueLen: r.Intn(3)})
		}
	} else {
		for _, t := range times() {
			p.Msgs = append(p.Msgs, trace.MsgRecord{Thread: 1 + r.Intn(2), Return: t, QueueLen: r.Intn(3)})
		}
	}
	for _, t := range times() {
		p.SyncIO = append(p.SyncIO, SyncIOChange{Outstanding: r.Intn(2), At: t})
	}
	return p
}

func TestDriveFSMMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		p := randomProbe(r)
		end := simtime.Time(50 * simtime.Millisecond)
		for thread := 1; thread <= 2; thread++ {
			got := DriveFSM(p, thread, end)
			want := replaySorted(sortedEvents(p, thread), end)
			if !slices.Equal(got.Transitions(), want.Transitions()) ||
				got.ThinkTime() != want.ThinkTime() || got.WaitTime() != want.WaitTime() {
				t.Fatalf("probe %d thread %d: merge %v think %v wait %v, oracle %v think %v wait %v\nprobe %+v",
					i, thread, got.Transitions(), got.ThinkTime(), got.WaitTime(),
					want.Transitions(), want.ThinkTime(), want.WaitTime(), p)
			}
		}
	}
}

// TestDriveFSMAllocs requires the merge to allocate no more than feeding
// the same records to a fresh FSM by hand: no scratch event slice.
func TestDriveFSMAllocs(t *testing.T) {
	p := syntheticProbe(500)
	end := p.Busy[len(p.Busy)-1].At.Add(simtime.Millisecond)
	evs := sortedEvents(p, 1)
	byHand := testing.AllocsPerRun(20, func() { replaySorted(evs, end) })
	merged := testing.AllocsPerRun(20, func() { DriveFSM(p, 1, end) })
	if merged > byHand {
		t.Fatalf("DriveFSM allocates %v per run, feeding the FSM by hand %v", merged, byHand)
	}
}

// syntheticProbe builds n keystroke-like episodes on thread 1, 10 ms
// apart: a post, the CPU going busy, a message-API return, a sync read
// starting and finishing, the CPU going idle. A post for thread 2 in
// every episode exercises the thread filter.
func syntheticProbe(n int) *Probe {
	p := &Probe{}
	for i := 0; i < n; i++ {
		t := simtime.Time(simtime.Duration(i) * 10 * simtime.Millisecond)
		p.Posts = append(p.Posts,
			PostRecord{Thread: 1, At: t, QueueLen: 1},
			PostRecord{Thread: 2, At: t, QueueLen: 1})
		p.Busy = append(p.Busy, BusyChange{Busy: true, At: t})
		p.Msgs = append(p.Msgs, trace.MsgRecord{Thread: 1, Return: t.Add(100 * simtime.Microsecond)})
		p.SyncIO = append(p.SyncIO,
			SyncIOChange{Outstanding: 1, At: t.Add(simtime.Millisecond)},
			SyncIOChange{Outstanding: 0, At: t.Add(4 * simtime.Millisecond)})
		p.Busy = append(p.Busy, BusyChange{Busy: false, At: t.Add(5 * simtime.Millisecond)})
	}
	return p
}

// fsmSink keeps BenchmarkDriveFSM's replays from being optimised away.
var fsmSink *FSM

// BenchmarkDriveFSM replays synthetic probes at two session lengths 4x
// apart. A linear replay costs about 4x more on the longer one, a
// quadratic one about 16x.
func BenchmarkDriveFSM(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		p := syntheticProbe(n)
		end := p.Busy[len(p.Busy)-1].At.Add(simtime.Millisecond)
		b.Run(fmt.Sprintf("episodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fsmSink = DriveFSM(p, 1, end)
			}
		})
	}
}
