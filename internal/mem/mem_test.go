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
