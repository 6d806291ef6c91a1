package kernel

import (
	"testing"

	"latlab/internal/simtime"
)

// BenchmarkThreadHandshake measures one kernel↔thread round trip: each
// op is a PeekMessage on an empty queue from a Spawned thread, a request
// that takes no simulated time, so the op is the switch into the thread
// and back plus the request's bookkeeping.
func BenchmarkThreadHandshake(b *testing.B) {
	// Zero-time requests between short sleeps, so one reconcile never
	// nears its livelock guard.
	const burst = 1000
	cfg := quietConfig()
	cfg.TimersTickAligned = false
	k := New(cfg)
	defer k.Shutdown()
	n := b.N
	th := k.Spawn("peeker", 1, 8, func(tc *TC) {
		tc.Sleep(simtime.Millisecond)
		for i := 1; i <= n; i++ {
			tc.PeekMessage()
			if i%burst == 0 {
				tc.Sleep(simtime.Millisecond)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for th.State() != StateDone {
		k.RunFor(simtime.Second)
	}
}
