package mem

import (
	"latlab/internal/machine"
	"testing"
	"testing/quick"
)

func TestLRUBasic(t *testing.T) {
	l := NewLRU(2)
	if l.Touch(1) {
		t.Fatalf("first touch should miss")
	}
	if !l.Touch(1) {
		t.Fatalf("second touch should hit")
	}
	l.Touch(2)
	if l.Len() != 2 || l.Cap() != 2 {
		t.Fatalf("len/cap = %d/%d", l.Len(), l.Cap())
	}
	// 1 is LRU? No: touch order was 1,1,2 → 1 is LRU... wait, 1 was
	// touched twice then 2; LRU is 1. Touch 3 evicts 1.
	l.Touch(3)
	if l.Contains(1) {
		t.Fatalf("1 should have been evicted")
	}
	if !l.Contains(2) || !l.Contains(3) {
		t.Fatalf("2 and 3 should be resident")
	}
}

func TestLRURecencyUpdate(t *testing.T) {
	l := NewLRU(2)
	l.Touch(1)
	l.Touch(2)
	l.Touch(1) // 2 becomes LRU
	l.Touch(3) // evicts 2
	if l.Contains(2) {
		t.Fatalf("2 should have been evicted after recency update")
	}
	if !l.Contains(1) || !l.Contains(3) {
		t.Fatalf("1 and 3 should be resident")
	}
}

func TestLRUFlush(t *testing.T) {
	l := NewLRU(4)
	for i := uint64(0); i < 4; i++ {
		l.Touch(i)
	}
	l.Flush()
	if l.Len() != 0 {
		t.Fatalf("flush should empty the set")
	}
	if l.Touch(0) {
		t.Fatalf("post-flush touch should miss")
	}
}

func TestLRUInsert(t *testing.T) {
	l := NewLRU(2)
	l.Insert(5)
	if !l.Contains(5) {
		t.Fatalf("Insert should make id resident")
	}
}

func TestLRUCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewLRU(0)
}

// Property: Len never exceeds Cap, and a working set within capacity hits
// on every touch after the first pass.
func TestLRUProperties(t *testing.T) {
	f := func(ids []uint64, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		l := NewLRU(capacity)
		for _, id := range ids {
			l.Touch(id)
			if l.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLRUWorkingSetWithinCapacityAlwaysHits(t *testing.T) {
	l := NewLRU(8)
	ws := []uint64{10, 20, 30, 40}
	touchAll(l, ws) // cold pass
	for pass := 0; pass < 5; pass++ {
		if misses := touchAll(l, ws); misses != 0 {
			t.Fatalf("pass %d: %d misses for resident working set", pass, misses)
		}
	}
}

func TestLRUWorkingSetLargerThanCapacityAlwaysMisses(t *testing.T) {
	// Sequential scan of cap+1 items through an LRU misses every time.
	l := NewLRU(3)
	ws := []uint64{1, 2, 3, 4}
	touchAll(l, ws)
	for pass := 0; pass < 3; pass++ {
		if misses := touchAll(l, ws); misses != len(ws) {
			t.Fatalf("pass %d: %d misses, want %d (LRU thrash)", pass, misses, len(ws))
		}
	}
}

func TestSystem(t *testing.T) {
	s := NewSystem(ConfigFor(machine.Pentium100()))
	if s.ITLB.Cap() != 32 || s.DTLB.Cap() != 64 || s.Cache.Cap() != 8192 {
		t.Fatalf("default capacities wrong")
	}
	code := []uint64{1, 2, 3}
	data := []uint64{100, 101}
	if got := s.TouchCode(code); got != 3 {
		t.Fatalf("cold code misses = %d, want 3", got)
	}
	if got := s.TouchData(data); got != 2 {
		t.Fatalf("cold data misses = %d, want 2", got)
	}
	if got := s.TouchCode(code); got != 0 {
		t.Fatalf("warm code misses = %d, want 0", got)
	}
	// A domain crossing flushes both TLBs but not the cache.
	chunks := []uint64{7, 8}
	s.TouchCache(chunks)
	s.FlushTLBs()
	if got := s.TouchCode(code); got != 3 {
		t.Fatalf("post-flush code misses = %d, want 3", got)
	}
	if got := s.TouchData(data); got != 2 {
		t.Fatalf("post-flush data misses = %d, want 2", got)
	}
	if got := s.TouchCache(chunks); got != 0 {
		t.Fatalf("cache should survive TLB flush, got %d misses", got)
	}
}

func BenchmarkLRUTouch(b *testing.B) {
	// 8192-line cache (the paper's 256 KB L2) under a working set a bit
	// larger than capacity: every miss exercises the evict/recycle path.
	l := NewLRU(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Touch(uint64(i % 10000))
	}
}

func BenchmarkLRUFlush(b *testing.B) {
	l := NewLRU(64)
	for i := uint64(0); i < 64; i++ {
		l.Touch(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Touch(uint64(i & 63))
		if i&63 == 63 {
			l.Flush()
		}
	}
}

func TestTaggedTLBSurvivesFlush(t *testing.T) {
	cfg := ConfigFor(machine.Pentium100())
	cfg.TaggedTLB = true
	s := NewSystem(cfg)
	if !s.Tagged() {
		t.Fatalf("Tagged() should report the config")
	}
	code := []uint64{1, 2, 3}
	data := []uint64{100, 101}
	s.TouchCode(code)
	s.TouchData(data)
	s.FlushTLBs() // no-op on a tagged machine
	if got := s.TouchCode(code); got != 0 {
		t.Fatalf("tagged ITLB lost entries across flush: %d misses", got)
	}
	if got := s.TouchData(data); got != 0 {
		t.Fatalf("tagged DTLB lost entries across flush: %d misses", got)
	}
}

func TestNoL2EveryCacheReferenceMisses(t *testing.T) {
	cfg := ConfigFor(machine.Pentium100())
	cfg.CacheLines = 0
	s := NewSystem(cfg)
	if s.Cache != nil {
		t.Fatalf("CacheLines=0 should build no cache")
	}
	chunks := []uint64{7, 8, 9}
	if got := s.TouchCache(chunks); got != 3 {
		t.Fatalf("no-L2 misses = %d, want all %d", got, len(chunks))
	}
	if got := s.TouchCache(chunks); got != 3 {
		t.Fatalf("no-L2 machine must never warm up, got %d misses", got)
	}
	// The TLBs still work without an L2.
	s.TouchCode([]uint64{1})
	if got := s.TouchCode([]uint64{1}); got != 0 {
		t.Fatalf("TLBs should still warm up on a no-L2 machine")
	}
}

// oracleLRU is a reference LRU whose map index and node slab are both
// sized to the capacity at construction, with every slot on the free
// list from the start. FuzzLRUEquivalence holds LRU, which grows both
// on demand, to its answers.
type oracleLRU struct {
	cap   int
	index map[uint64]int32
	nodes []node
	free  []int32
	head  int32
	tail  int32
}

func newOracleLRU(capacity int) *oracleLRU {
	l := &oracleLRU{
		cap:   capacity,
		index: make(map[uint64]int32, capacity),
		nodes: make([]node, capacity),
		free:  make([]int32, capacity),
		head:  noSlot,
		tail:  noSlot,
	}
	l.resetFree()
	return l
}

func (l *oracleLRU) resetFree() {
	l.free = l.free[:0]
	for i := l.cap - 1; i >= 0; i-- {
		l.free = append(l.free, int32(i))
	}
}

func (l *oracleLRU) Len() int { return len(l.index) }

func (l *oracleLRU) Contains(id uint64) bool {
	_, ok := l.index[id]
	return ok
}

func (l *oracleLRU) Touch(id uint64) bool {
	if n, ok := l.index[id]; ok {
		l.moveToFront(n)
		return true
	}
	var slot int32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		slot = l.evict()
	}
	l.nodes[slot].id = id
	l.index[id] = slot
	l.pushFront(slot)
	return false
}

func (l *oracleLRU) Flush() {
	clear(l.index)
	l.head, l.tail = noSlot, noSlot
	l.resetFree()
}

func (l *oracleLRU) pushFront(n int32) {
	l.nodes[n].prev = noSlot
	l.nodes[n].next = l.head
	if l.head != noSlot {
		l.nodes[l.head].prev = n
	}
	l.head = n
	if l.tail == noSlot {
		l.tail = n
	}
}

func (l *oracleLRU) unlink(n int32) {
	prev, next := l.nodes[n].prev, l.nodes[n].next
	if prev != noSlot {
		l.nodes[prev].next = next
	} else {
		l.head = next
	}
	if next != noSlot {
		l.nodes[next].prev = prev
	} else {
		l.tail = prev
	}
	l.nodes[n].prev, l.nodes[n].next = noSlot, noSlot
}

func (l *oracleLRU) moveToFront(n int32) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

func (l *oracleLRU) evict() int32 {
	victim := l.tail
	l.unlink(victim)
	delete(l.index, l.nodes[victim].id)
	return victim
}

func (l *oracleLRU) EvictOldest(n int) int {
	evicted := 0
	for evicted < n && l.tail != noSlot {
		l.free = append(l.free, l.evict())
		evicted++
	}
	return evicted
}

// FuzzLRUEquivalence interleaves Touch, Contains, Flush, EvictOldest and
// Len on the LRU and on oracleLRU, and requires every return value to
// agree. The first byte picks a capacity of 1-16; each later byte is an
// op, and Touch, Contains and EvictOldest take the next byte as their
// operand. Identifiers come from a range a little wider than the
// largest capacity, so hits, misses and evictions all occur.
func FuzzLRUEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0, 3, 5, 1, 5, 0, 1})
	f.Add([]byte{1, 0, 1, 0, 2, 2, 0, 3, 1, 1, 0, 4, 4})
	f.Add([]byte{3, 0, 1, 0, 2, 3, 1, 2, 0, 3, 0, 4, 4})
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 3, 2, 0, 1, 4, 0, 6, 1, 1})
	f.Add([]byte{7, 0, 9, 0, 10, 0, 11, 3, 1, 0, 12, 0, 9, 2, 0, 13, 1, 9, 4})
	f.Add([]byte{15, 0, 1, 0, 2, 0, 1, 3, 9, 0, 3, 0, 4, 4, 2, 3, 1, 0, 5, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0]%16) + 1
		l, o := NewLRU(capacity), newOracleLRU(capacity)
		for i := 1; i < len(data); i++ {
			op := data[i] % 5
			var arg byte
			if op == 0 || op == 1 || op == 3 {
				i++
				if i >= len(data) {
					break
				}
				arg = data[i]
			}
			id := uint64(arg % 20)
			switch op {
			case 0:
				if got, want := l.Touch(id), o.Touch(id); got != want {
					t.Fatalf("op %d: Touch(%d) = %v, oracle %v", i, id, got, want)
				}
			case 1:
				if got, want := l.Contains(id), o.Contains(id); got != want {
					t.Fatalf("op %d: Contains(%d) = %v, oracle %v", i, id, got, want)
				}
			case 2:
				l.Flush()
				o.Flush()
			case 3:
				n := int(arg % 8)
				if got, want := l.EvictOldest(n), o.EvictOldest(n); got != want {
					t.Fatalf("op %d: EvictOldest(%d) = %d, oracle %d", i, n, got, want)
				}
			case 4:
				if got, want := l.Len(), o.Len(); got != want {
					t.Fatalf("op %d: Len = %d, oracle %d", i, got, want)
				}
			}
		}
		if got, want := l.Len(), o.Len(); got != want {
			t.Fatalf("final Len = %d, oracle %d", got, want)
		}
	})
}
