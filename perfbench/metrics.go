package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named number the benchmark reports, with its unit.
type metric struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run (--trace 0): host time
// and memory as a user of the simulator sees them. BENCHMARK.json
// carries the same names, units and bounds.
var endToEnd = []metric{
	{"sessions_per_s", "1/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics of a traced run (--trace 1). Times come
// from spans the benchmark records around calls into each layer's
// public functions; counts are exact and host-independent. A metric a
// workload has no layer for reads 0 (see README.md, "Which metric
// applies where").
var perLayer = []metric{
	{"failed_frac", "ratio"},
	{"campaign.load_ms", "ms"},
	{"experiments.open_us", "us"},
	{"system.run_us", "us"},
	{"kernel.sim_s_per_s", "1"},
	{"experiments.result_us", "us"},
	{"stats.fold_ns_per_event", "ns"},
	{"campaign.append_us", "us"},
	{"experiments.spec_run_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"open.share", "ratio"},
	{"run.share", "ratio"},
	{"result.share", "ratio"},
	{"fold.share", "ratio"},
	{"append.share", "ratio"},
	{"cell.share", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"runner.parallel_efficiency", "ratio"},
	{"runtime.allocs_per_session", "count"},
	{"runtime.alloc_kb_per_session", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.goroutines_leaked", "count"},
	{"kernel.sim_s", "s"},
	{"kernel.bulk_elided", "count"},
	{"kernel.clock_ticks", "count"},
	{"cpu.interrupts", "count"},
	{"cpu.itlb_misses", "count"},
	{"cpu.dtlb_misses", "count"},
	{"cpu.cache_misses", "count"},
	{"cpu.domain_crossings", "count"},
	{"fscache.hits", "count"},
	{"fscache.misses", "count"},
	{"disk.served", "count"},
	{"core.events", "count"},
}

// median returns the median of xs (the mean of the middle two for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
