package eventq

import (
	"latlab/internal/simtime"
)

// Event is a popped event: the instant it was scheduled for and its
// callback. It is a value; popping performs no allocation.
type Event struct {
	at simtime.Time
	fn func(now simtime.Time)
}

// At returns the instant the event was scheduled to fire.
func (e Event) At() simtime.Time { return e.at }

// Fire invokes the event's callback at instant now. It is split from Pop
// so the simulator can update its clock between the two.
func (e Event) Fire(now simtime.Time) { e.fn(now) }

// Handle identifies a scheduled event for cancellation. The zero Handle
// is invalid. Handles are values; holding one does not keep anything
// alive, and using a handle after its event fired is detected via a
// generation check (the methods then report a dead event).
type Handle struct {
	q    *Queue
	at   simtime.Time
	slot int32
	gen  uint32
}

// Valid reports whether the handle refers to a queue at all (the zero
// Handle does not).
func (h Handle) Valid() bool { return h.q != nil }

// At returns the instant the event was scheduled to fire.
func (h Handle) At() simtime.Time { return h.at }

// Cancel marks the event so it will be skipped when it reaches the head
// of the queue. Cancelling an already-fired or already-cancelled event is
// a no-op.
func (h Handle) Cancel() {
	if h.q != nil && h.q.tickets[h.slot].gen == h.gen {
		h.q.tickets[h.slot].cancelled = true
	}
}

// Cancelled reports whether Cancel has been called on the event (false
// once the event has fired or been discarded).
func (h Handle) Cancelled() bool {
	return h.q != nil && h.q.tickets[h.slot].gen == h.gen && h.q.tickets[h.slot].cancelled
}

// entry is one scheduled event inside the heap, stored by value.
type entry struct {
	at   simtime.Time
	seq  uint64
	slot int32
	fn   func(now simtime.Time)
}

// ticket carries the cancellation flag for one in-flight event. Slots are
// recycled through a free list; gen disambiguates reuse so stale Handles
// are inert.
type ticket struct {
	gen       uint32
	cancelled bool
}

// Queue is a deterministic priority queue of events, a pre-grown 4-ary
// heap. The zero value is an empty queue ready for use. Entries are
// totally ordered by (at, seq) and seq is unique, so the pop order is
// independent of the heap's layout. Queue is not safe for concurrent
// use; the simulator is single-threaded by construction.
type Queue struct {
	h       []entry
	seq     uint64
	tickets []ticket
	free    []int32
}

// Grow pre-sizes the queue's internal storage for at least n concurrently
// scheduled events, so the hot path never reallocates.
func (q *Queue) Grow(n int) {
	if cap(q.h) < n {
		h := make([]entry, len(q.h), n)
		copy(h, q.h)
		q.h = h
	}
	if cap(q.tickets) < n {
		t := make([]ticket, len(q.tickets), n)
		copy(t, q.tickets)
		q.tickets = t
	}
}

// Schedule enqueues fn to run at instant at and returns a handle that can
// cancel it. Scheduling in the past is the caller's bug and panics, since
// it would silently corrupt causality.
func (q *Queue) Schedule(at simtime.Time, fn func(now simtime.Time)) Handle {
	if fn == nil {
		panic("eventq: nil event function")
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.tickets[slot].cancelled = false
	} else {
		slot = int32(len(q.tickets))
		q.tickets = append(q.tickets, ticket{})
	}
	e := entry{at: at, seq: q.seq, slot: slot, fn: fn}
	q.seq++
	q.h = append(q.h, e)
	q.siftUp(len(q.h) - 1)
	return Handle{q: q, at: at, slot: slot, gen: q.tickets[slot].gen}
}

// SkipSeq advances the internal sequence counter by n without
// scheduling anything, replicating the seq numbering of n elided
// Schedule calls — the bulk idle-skip fast path uses it so elided and
// simulated runs assign identical (at, seq) keys to every later event.
func (q *Queue) SkipSeq(n uint64) { q.seq += n }

// Len returns the number of events still enqueued, including cancelled
// events that have not yet been skipped.
func (q *Queue) Len() int { return len(q.h) }

// Empty reports whether no live events remain. It discards any cancelled
// events at the head of the queue.
func (q *Queue) Empty() bool {
	q.skipCancelled()
	return len(q.h) == 0
}

// NextTime returns the firing time of the earliest live event, or
// simtime.Never when the queue is empty.
func (q *Queue) NextTime() simtime.Time {
	q.skipCancelled()
	if len(q.h) == 0 {
		return simtime.Never
	}
	return q.h[0].at
}

// Pop removes and returns the earliest live event; ok is false when the
// queue is empty.
func (q *Queue) Pop() (e Event, ok bool) {
	q.skipCancelled()
	if len(q.h) == 0 {
		return Event{}, false
	}
	head := q.popHead()
	return Event{at: head.at, fn: head.fn}, true
}

// popHead removes the heap head, releasing its ticket.
func (q *Queue) popHead() entry {
	head := q.h[0]
	q.release(head.slot)
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = entry{} // drop the fn reference
	q.h = q.h[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return head
}

// release recycles a ticket slot, invalidating outstanding Handles to it.
func (q *Queue) release(slot int32) {
	q.tickets[slot].gen++
	q.tickets[slot].cancelled = false
	q.free = append(q.free, slot)
}

func (q *Queue) skipCancelled() {
	for len(q.h) > 0 && q.tickets[q.h[0].slot].cancelled {
		q.popHead()
	}
}

// less orders entries by (at, seq); seq is unique, so the order is total
// and pop order is independent of heap arity or layout.
func (q *Queue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// siftUp restores the heap invariant from a newly appended leaf.
func (q *Queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// siftDown restores the heap invariant from the root after a pop.
func (q *Queue) siftDown(i int) {
	n := len(q.h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !q.less(best, i) {
			return
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}
