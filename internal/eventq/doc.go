// Package eventq implements the discrete-event queue at the heart of
// the latlab simulator.
//
// Events are ordered by (time, sequence number): two events scheduled
// for the same instant fire in the order they were scheduled, which
// keeps the whole simulation deterministic. Cancellation is lazy — a
// cancelled event stays in the heap but is skipped when popped — so
// cancel is O(1) and the queue never needs to locate arbitrary entries.
//
// The queue is allocation-free on the push/pop path: entries are stored
// by value in a pre-grown 4-ary heap (shallower than a binary heap, so
// fewer cache lines touched per sift), and cancellation state lives in
// a recycled ticket slab addressed by Handle rather than in per-event
// heap allocations. Scheduling a million events costs a handful of
// slice growths, all amortized away by Grow or steady-state reuse.
//
// The heap is the only backend, under both simulation engines. A
// calendar/bucket backend for the batched engine was measured end to
// end and deleted: it was no faster than the heap at the simulator's
// in-flight counts (tens of events), and it built and grew a fresh
// bucket ring on every kernel boot. FuzzQueueEquivalence checks the
// heap's pop order against a linear-scan model.
//
// Invariants:
//
//   - Total order. Pop returns events in strictly non-decreasing time;
//     equal times break by schedule order, never by memory layout or
//     map iteration, so replaying a run replays the exact schedule.
//   - No time travel. Pushing an event earlier than the last popped
//     time is the caller's bug; the queue does not rewind.
//   - Handles stay cheap. A Handle is two integers; using one after
//     its ticket was recycled is detected by generation check rather
//     than corrupting the heap.
package eventq
