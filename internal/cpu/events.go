package cpu

import "fmt"

// EventKind enumerates the hardware events the simulated processor can
// count — the subset of Pentium counter events the paper's Figures 9 and
// 10 report, plus a few the analysis text references.
type EventKind uint8

// Hardware event kinds.
const (
	// Instructions counts retired instructions.
	Instructions EventKind = iota
	// DataRefs counts data memory references.
	DataRefs
	// ITLBMisses counts instruction-TLB misses.
	ITLBMisses
	// DTLBMisses counts data-TLB misses.
	DTLBMisses
	// CacheMisses counts unified cache misses.
	CacheMisses
	// Interrupts counts hardware interrupts taken.
	Interrupts
	// SegmentLoads counts segment-register loads — the signature of
	// 16-bit Windows code paths (paper §4, §5.3).
	SegmentLoads
	// UnalignedAccesses counts misaligned data accesses, likewise
	// characteristic of 16-bit code.
	UnalignedAccesses
	// DomainCrossings counts protection-domain crossings (each flushes
	// the TLBs on a Pentium).
	DomainCrossings

	// NumEventKinds is the number of defined event kinds.
	NumEventKinds
)

var eventNames = [NumEventKinds]string{
	"instructions",
	"data_refs",
	"itlb_misses",
	"dtlb_misses",
	"cache_misses",
	"interrupts",
	"segment_loads",
	"unaligned_accesses",
	"domain_crossings",
}

// String returns the snake_case name of the event kind.
func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}
