package cpu

import (
	"errors"

	"latlab/internal/simtime"
)

// Mode is the processor privilege mode from which a counter access is
// attempted. The paper notes (§2.2) that the Pentium cycle counter is
// readable from user or system mode, but the two event counters can only
// be read and configured from system mode.
type Mode uint8

// Privilege modes.
const (
	UserMode Mode = iota
	SystemMode
)

// ErrPrivileged is returned when an event-counter access is attempted
// from user mode.
var ErrPrivileged = errors.New("cpu: event counters require system mode")

// ErrBadCounter is returned for a counter index other than 0 or 1.
var ErrBadCounter = errors.New("cpu: counter index out of range (two event counters)")

// counterMask truncates event counters to 40 bits, as on the Pentium.
const counterMask = 1<<40 - 1

// CounterFile models the Pentium's performance-monitoring registers: one
// 64-bit free-running cycle counter and two 40-bit configurable event
// counters. Configuring a counter resets its accumulated value, so a
// measurement is "configure, run, read".
type CounterFile struct {
	cpu  *CPU
	sel  [2]EventKind
	base [2]int64
	on   [2]bool
}

// NewCounterFile returns the counter file of c.
func NewCounterFile(c *CPU) *CounterFile { return &CounterFile{cpu: c} }

// ReadCycles returns the 64-bit cycle counter at instant now. Readable
// from any mode.
func (f *CounterFile) ReadCycles(now simtime.Time) int64 {
	return f.cpu.CycleAt(now)
}

// Configure selects the event counted by event counter i and zeroes it.
// System mode only.
func (f *CounterFile) Configure(m Mode, i int, k EventKind) error {
	if m != SystemMode {
		return ErrPrivileged
	}
	if i < 0 || i > 1 {
		return ErrBadCounter
	}
	if k >= NumEventKinds {
		return errors.New("cpu: unknown event kind")
	}
	f.sel[i] = k
	f.base[i] = f.cpu.Count(k)
	f.on[i] = true
	return nil
}

// Read returns the 40-bit value of event counter i. System mode only.
func (f *CounterFile) Read(m Mode, i int) (int64, error) {
	if m != SystemMode {
		return 0, ErrPrivileged
	}
	if i < 0 || i > 1 {
		return 0, ErrBadCounter
	}
	if !f.on[i] {
		return 0, nil
	}
	return (f.cpu.Count(f.sel[i]) - f.base[i]) & counterMask, nil
}
