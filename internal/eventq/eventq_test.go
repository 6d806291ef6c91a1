package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"latlab/internal/simtime"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30, func(simtime.Time) { got = append(got, 3) })
	q.Schedule(10, func(simtime.Time) { got = append(got, 1) })
	q.Schedule(20, func(simtime.Time) { got = append(got, 2) })
	for !q.Empty() {
		e, _ := q.Pop()
		e.Fire(e.At())
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(42, func(simtime.Time) { got = append(got, i) })
	}
	for !q.Empty() {
		e, _ := q.Pop()
		e.Fire(e.At())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of schedule order at %d: %v", i, got[:i+1])
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	h := q.Schedule(10, func(simtime.Time) { fired = true })
	q.Schedule(20, func(simtime.Time) {})
	h.Cancel()
	if !h.Cancelled() {
		t.Fatalf("Cancelled() = false after Cancel")
	}
	if got := q.NextTime(); got != 20 {
		t.Fatalf("NextTime = %v, want 20 (cancelled head skipped)", got)
	}
	if e, ok := q.Pop(); !ok || e.At() != 20 {
		t.Fatalf("Pop returned wrong event")
	}
	if fired {
		t.Fatalf("cancelled event fired")
	}
	if !q.Empty() {
		t.Fatalf("queue should be empty")
	}
}

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if _, ok := q.Pop(); ok {
		t.Fatalf("Pop on empty queue should report not-ok")
	}
	if q.NextTime() != simtime.Never {
		t.Fatalf("NextTime on empty queue should be Never")
	}
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("zero value should be empty")
	}
	var h Handle
	if h.Valid() || h.Cancelled() {
		t.Fatalf("zero Handle should be invalid and not cancelled")
	}
	h.Cancel() // must be a no-op, not a panic
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Schedule(nil) should panic")
		}
	}()
	var q Queue
	q.Schedule(0, nil)
}

func TestScheduleDuringFire(t *testing.T) {
	// Events scheduled from inside a callback for the same instant must
	// fire after the current event but before later instants.
	var q Queue
	var got []string
	q.Schedule(10, func(now simtime.Time) {
		got = append(got, "a")
		q.Schedule(now, func(simtime.Time) { got = append(got, "a-child") })
	})
	q.Schedule(20, func(simtime.Time) { got = append(got, "b") })
	for !q.Empty() {
		e, _ := q.Pop()
		e.Fire(e.At())
	}
	want := []string{"a", "a-child", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestStaleHandleInert checks that a handle outliving its event cannot
// affect a later event that recycled the same ticket slot.
func TestStaleHandleInert(t *testing.T) {
	var q Queue
	h := q.Schedule(10, func(simtime.Time) {})
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	fired := false
	q.Schedule(20, func(simtime.Time) { fired = true })
	h.Cancel() // stale: must not cancel the recycled slot
	if h.Cancelled() {
		t.Fatalf("stale handle reports cancelled")
	}
	if e, ok := q.Pop(); !ok {
		t.Fatal("live event was skipped")
	} else {
		e.Fire(e.At())
	}
	if !fired {
		t.Fatalf("recycled-slot event did not fire")
	}
}

// TestGrowPreservesContents checks Grow against a non-empty queue.
func TestGrowPreservesContents(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Schedule(simtime.Time(10-i), func(simtime.Time) {})
	}
	q.Grow(1024)
	var prev simtime.Time = -1
	for !q.Empty() {
		e, _ := q.Pop()
		if e.At() < prev {
			t.Fatalf("order broken after Grow")
		}
		prev = e.At()
	}
}

// TestSchedulePopAllocFree is the allocation budget for the hot path: a
// pre-grown queue must push and pop without allocating. The tentpole
// perf work depends on this staying at zero.
func TestSchedulePopAllocFree(t *testing.T) {
	var q Queue
	q.Grow(64)
	fn := func(simtime.Time) {}
	var at simtime.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at += 10
		q.Schedule(at, fn)
		q.Schedule(at+5, fn)
		q.Pop()
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Pop allocates %.1f times per run, want 0", allocs)
	}
}

// TestCancelAllocFree: cancel plus the lazy skip must also be free.
func TestCancelAllocFree(t *testing.T) {
	var q Queue
	q.Grow(64)
	fn := func(simtime.Time) {}
	var at simtime.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at += 10
		h := q.Schedule(at, fn)
		q.Schedule(at+1, fn)
		h.Cancel()
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel+Pop allocates %.1f times per run, want 0", allocs)
	}
}

// Property: popping a randomly scheduled set of events yields them in
// non-decreasing time order, and within equal times, in scheduling order.
func TestPopOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		type rec struct {
			at  simtime.Time
			seq int
		}
		var scheduled []rec
		var popped []rec
		for i := 0; i < int(n); i++ {
			at := simtime.Time(r.Intn(16)) // small range to force ties
			i := i
			q.Schedule(at, func(simtime.Time) {})
			scheduled = append(scheduled, rec{at, i})
			_ = i
		}
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			popped = append(popped, rec{e.At(), 0})
		}
		if len(popped) != len(scheduled) {
			return false
		}
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		for i := range popped {
			if popped[i].at != scheduled[i].at {
				return false
			}
			if i > 0 && popped[i].at < popped[i-1].at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset never perturbs the relative
// order of the survivors.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		var handles []Handle
		var keepAt []simtime.Time
		for i := 0; i < int(n); i++ {
			at := simtime.Time(r.Intn(1000))
			handles = append(handles, q.Schedule(at, func(simtime.Time) {}))
		}
		for _, h := range handles {
			if r.Intn(2) == 0 {
				h.Cancel()
			} else {
				keepAt = append(keepAt, h.At())
			}
		}
		sort.Slice(keepAt, func(i, j int) bool { return keepAt[i] < keepAt[j] })
		var got []simtime.Time
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			got = append(got, e.At())
		}
		if len(got) != len(keepAt) {
			return false
		}
		for i := range got {
			if got[i] != keepAt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// model is the reference the heap is checked against: a plain slice of
// scheduled events and a linear scan for the (at, seq) minimum. It is
// slow and obviously correct, which is all an oracle needs to be.
type model struct {
	entries []modelEntry
	seq     uint64
}

type modelEntry struct {
	at        simtime.Time
	seq       uint64
	id        int
	cancelled bool
}

// schedule enqueues event id at instant at and returns its seq, which
// serves as the model's cancellation handle.
func (m *model) schedule(at simtime.Time, id int) uint64 {
	m.entries = append(m.entries, modelEntry{at: at, seq: m.seq, id: id})
	m.seq++
	return m.seq - 1
}

// cancel marks the pending event seq cancelled and reports whether it
// was still pending, which is what Handle.Cancelled reports afterwards.
func (m *model) cancel(seq uint64) bool {
	for i := range m.entries {
		if m.entries[i].seq == seq {
			m.entries[i].cancelled = true
			return true
		}
	}
	return false
}

// min returns the index of the earliest live entry, or -1.
func (m *model) min() int {
	best := -1
	for i, e := range m.entries {
		if e.cancelled {
			continue
		}
		if best < 0 || e.at < m.entries[best].at || (e.at == m.entries[best].at && e.seq < m.entries[best].seq) {
			best = i
		}
	}
	return best
}

func (m *model) nextTime() simtime.Time {
	if i := m.min(); i >= 0 {
		return m.entries[i].at
	}
	return simtime.Never
}

// pop removes and returns the earliest live entry.
func (m *model) pop() (modelEntry, bool) {
	i := m.min()
	if i < 0 {
		return modelEntry{}, false
	}
	e := m.entries[i]
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
	return e, true
}

// FuzzQueueEquivalence drives the heap and the linear-scan model with
// one op stream — schedule (with fuzzer-chosen deltas, including ties
// and long jumps), cancel, pop — and requires identical NextTime after
// every op, identical Cancelled() after every cancel, and an identical
// pop sequence, both instants and callback identities.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 2, 0, 1, 2, 2, 2})
	f.Add([]byte{0, 200, 3, 0, 5, 1, 0, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue
		var m model
		var got, want []int
		type pair struct {
			h   Handle
			seq uint64
		}
		var live []pair
		id := 0
		at := simtime.Time(0)
		pop := func() bool {
			e, ok := q.Pop()
			me, mok := m.pop()
			if ok != mok {
				t.Fatalf("Pop ok diverged: heap %v model %v", ok, mok)
			}
			if !ok {
				return false
			}
			if e.At() != me.at {
				t.Fatalf("Pop at diverged: heap %v model %v", e.At(), me.at)
			}
			e.Fire(e.At())
			want = append(want, me.id)
			at = e.At() // advance the schedule base like a simulator clock
			return true
		}
		for i := 0; i < len(data); i++ {
			switch data[i] % 4 {
			case 0: // schedule at `at + delta`: small deltas tie, some jump far ahead
				i++
				if i >= len(data) {
					break
				}
				d := simtime.Duration(data[i])
				if data[i]%3 == 2 {
					d *= simtime.Millisecond
				}
				when := at.Add(d)
				n := id
				id++
				h := q.Schedule(when, func(simtime.Time) { got = append(got, n) })
				live = append(live, pair{h, m.schedule(when, n)})
			case 1: // cancel a fuzzer-chosen outstanding handle
				i++
				if i >= len(data) || len(live) == 0 {
					break
				}
				j := int(data[i]) % len(live)
				live[j].h.Cancel()
				if hc, mc := live[j].h.Cancelled(), m.cancel(live[j].seq); hc != mc {
					t.Fatalf("Cancelled() diverged: heap %v model %v", hc, mc)
				}
				live = append(live[:j], live[j+1:]...)
			case 2: // pop
				pop()
			case 3: // pop burst
				for j := 0; j < 4 && pop(); j++ {
				}
			}
			if hn, mn := q.NextTime(), m.nextTime(); hn != mn {
				t.Fatalf("NextTime diverged: heap %v model %v", hn, mn)
			}
		}
		for pop() { // drain
		}
		if len(got) != len(want) {
			t.Fatalf("fired %d events on heap, %d on model", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fired order diverged at %d: heap %v model %v", i, got, want)
			}
		}
	})
}

// TestQueueEquivalenceRandom is the always-on cousin of
// FuzzQueueEquivalence: long random op streams, with deltas spread over
// 24 binary orders of magnitude, on every `go test` run.
func TestQueueEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4096)
		r.Read(ops)
		var q Queue
		var m model
		at := simtime.Time(0)
		var live []Handle
		var liveSeq []uint64
		for i := 0; i < len(ops)-1; i += 2 {
			switch ops[i] % 3 {
			case 0:
				d := simtime.Duration(ops[i+1]) * simtime.Duration(1<<uint(ops[i+1]%24))
				when := at.Add(d)
				live = append(live, q.Schedule(when, func(simtime.Time) {}))
				liveSeq = append(liveSeq, m.schedule(when, 0))
			case 1:
				if len(live) > 0 {
					j := int(ops[i+1]) % len(live)
					live[j].Cancel()
					m.cancel(liveSeq[j])
					live = append(live[:j], live[j+1:]...)
					liveSeq = append(liveSeq[:j], liveSeq[j+1:]...)
				}
			case 2:
				e, ok := q.Pop()
				me, mok := m.pop()
				if ok != mok || (ok && e.At() != me.at) {
					t.Fatalf("seed %d: pop diverged", seed)
				}
				if ok {
					at = e.At()
				}
			}
			if q.NextTime() != m.nextTime() {
				t.Fatalf("seed %d: NextTime diverged", seed)
			}
		}
	}
}

// BenchmarkSchedulePop is the raw queue hot path: one push and one pop
// per iteration against a warm queue.
func BenchmarkSchedulePop(b *testing.B) {
	var q Queue
	q.Grow(1024)
	fn := func(simtime.Time) {}
	for i := 0; i < 512; i++ {
		q.Schedule(simtime.Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	at := simtime.Time(512)
	for i := 0; i < b.N; i++ {
		q.Schedule(at, fn)
		at++
		q.Pop()
	}
}
