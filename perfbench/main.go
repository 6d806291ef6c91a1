// Command perfbench is latlab's benchmark. It runs one workload for a
// fixed time and prints every metric by name with its unit; the last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the root of the repository (perfbench/run.sh builds the
// binary first):
//
//	perfbench --workload demo-quick|ppt-paper|paper-suite --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload's fixed work runs repeatedly, untraced,
// for S seconds, and the end-to-end metrics are medians over those
// passes. With --trace 1 one timed pass is followed by two replays of
// the same work on one worker, one untraced and one with spans around
// each call into a layer; the per-layer metrics come from them. Every
// output — ledger line or rendering — is checked byte for byte, so a
// wrong answer counts as a failed operation, never as a metric. See
// README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// defaultSeed is the seed at which the committed references (the demo
// ledger, ppt/ppt-ledger.jsonl and the latbench goldens) apply.
const defaultSeed = 1

// setupReps is how many times the set-up repeats before each pass;
// setup_s is the median over all repetitions.
const setupReps = 21

// bench is one workload. Operations are the unit failures count in:
// campaign cells, or experiments for the suite.
type bench interface {
	// setup builds the workload's inputs; it is timed as setup_s.
	setup() error
	// ops returns the number of operations per pass.
	ops() int
	// sessions returns the number of sessions operation i runs.
	sessions(i int) int
	// reference returns the expected output of every operation at the
	// default seed, and nil at any other seed.
	reference() ([][]byte, error)
	// pass runs the fixed work the way the program's CLI does and
	// returns each operation's output, nil for a failed one.
	pass() ([][]byte, error)
	// replay runs the same work on one worker through each layer's
	// public functions, with spans when tr is non-nil.
	replay(tr *tracer) ([][]byte, simCounts, error)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64, jobs int) bench{
	"demo-quick": func(seed uint64, jobs int) bench {
		return &campaignBench{
			specPath: filepath.Join("testdata", "campaigns", "demo.json"),
			refPath:  filepath.Join("testdata", "campaigns", "demo-ledger.jsonl"),
			quick:    true, seed: seed, jobs: jobs,
		}
	},
	"ppt-paper": func(seed uint64, jobs int) bench {
		return &campaignBench{
			specPath: filepath.Join("perfbench", "ppt", "ppt-paper.json"),
			refPath:  filepath.Join("perfbench", "ppt", "ppt-ledger.jsonl"),
			seed:     seed, jobs: jobs,
		}
	},
	"paper-suite": func(seed uint64, jobs int) bench {
		return &suiteBench{
			goldenDir: filepath.Join("cmd", "latbench", "testdata", "golden"),
			seed:      seed, jobs: jobs,
		}
	},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: demo-quick, ppt-paper or paper-suite")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the committed references apply at the default")
	secs := fs.Int("seconds", 10, "measure for this many seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload demo-quick|ppt-paper|paper-suite, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	b := mk(*seed, runtime.NumCPU())
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(b, filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", *name, *seed)), stdout)
	} else {
		res, err = runTimed(b, time.Duration(*secs)*time.Second, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, m := range append(endToEnd, perLayer...) {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(stdout, "%-30s %s %s\n", m.Name, strconv.FormatFloat(v.Value, 'f', -1, 64), v.Unit)
		}
	}
	fmt.Fprintf(stdout, "%-30s %d/%d\n", "failed/attempted", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// timedSetup runs the workload's set-up setupReps times and returns
// the durations.
func timedSetup(b bench) ([]time.Duration, error) {
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0)
	}
	return ds, nil
}

// checker counts operations and failures across a run's executions.
// An operation fails when it has no output or its output differs from
// the reference byte for byte. At the default seed the reference is
// the committed one; at any other seed the first execution becomes
// the reference for the rest.
type checker struct {
	ref               [][]byte
	attempted, failed int
}

func (c *checker) check(got [][]byte) {
	if c.ref == nil {
		c.ref = got
	}
	c.attempted += len(got)
	for i, g := range got {
		if g == nil || c.ref[i] == nil || !bytes.Equal(g, c.ref[i]) {
			c.failed++
		}
	}
}

// result builds the output from the measured values, which must be
// exactly the metrics of list; each gets the unit list gives it.
func (c *checker) result(list []metric, vals map[string]float64) (*result, error) {
	if len(vals) != len(list) {
		return nil, fmt.Errorf("measured %d metrics, want %d", len(vals), len(list))
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}, nil
}

// runTimed is the untraced run: passes of the fixed work for about d,
// at least one, each from a freshly collected heap.
func runTimed(b bench, d time.Duration, stdout io.Writer) (*result, error) {
	// Passes continue while one more, at the mean pass time so far,
	// still ends within d, so a run lasts about d whatever the pass size.
	// The set-up repeats before every pass, so setup_s samples the whole
	// run rather than its first milliseconds.
	var setups, walls []time.Duration
	var rates []float64
	var total time.Duration
	var chk *checker
	for start := time.Now(); len(walls) == 0 || time.Since(start)+total/time.Duration(len(walls)) <= d; {
		ds, err := timedSetup(b)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ds...)
		if chk == nil {
			ref, err := b.reference()
			if err != nil {
				return nil, err
			}
			chk = &checker{ref: ref}
		}
		runtime.GC()
		c0 := cpuTime()
		t0 := time.Now()
		out, err := b.pass()
		wall := time.Since(t0)
		cpu := cpuTime() - c0
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		total += wall
		done := 0
		for i, o := range out {
			if o != nil {
				done += b.sessions(i)
			}
		}
		rates = append(rates, float64(done)/wall.Seconds())
		chk.check(out)
		fmt.Fprintf(stdout, "pass %d: %.4f s wall, %.4f s cpu\n", len(walls), wall.Seconds(), cpu.Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return chk.result(endToEnd, map[string]float64{
		"sessions_per_s": median(rates),
		"wall_s":         median(seconds(walls)),
		"setup_s":        median(seconds(setups)),
		"peak_rss_mb":    rss,
	})
}

// settledGoroutines returns the goroutine count once goroutines that
// were already exiting have gone, waiting at most a second.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// runTraced is the traced run: one timed pass (runtime counts), an
// untraced one-worker replay, then the same replay with spans.
func runTraced(b bench, spansFile string, stdout io.Writer) (*result, error) {
	setups, err := timedSetup(b)
	if err != nil {
		return nil, err
	}
	ref, err := b.reference()
	if err != nil {
		return nil, err
	}
	chk := &checker{ref: ref}

	runtime.GC()
	var m0, m1 runtime.MemStats
	g0 := runtime.NumGoroutine()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out, err := b.pass()
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	leaked := settledGoroutines(g0) - g0
	chk.check(out)

	runtime.GC()
	t0 = time.Now()
	outU, countsU, err := b.replay(nil)
	wallU := time.Since(t0)
	if err != nil {
		return nil, err
	}
	chk.check(outU)

	runtime.GC()
	tr := newTracer()
	t0 = time.Now()
	outT, counts, err := b.replay(tr)
	wallT := time.Since(t0)
	if err != nil {
		return nil, err
	}
	chk.check(outT)
	if counts != countsU {
		// The replays ran identical work; differing counts mean the
		// simulation is not deterministic.
		chk.failed++
	}
	fmt.Fprintf(stdout, "timed pass %.4f s, untraced replay %.4f s, traced replay %.4f s\n",
		wall.Seconds(), wallU.Seconds(), wallT.Seconds())
	if err := tr.write(spansFile); err != nil {
		return nil, err
	}

	lt := tr.split()
	printSplit(stdout, lt, wallT)
	sess := 0.0
	for i := 0; i < b.ops(); i++ {
		sess += float64(b.sessions(i))
	}
	per := func(name string, n, unit float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(lt.Total[name]) / unit / n
	}
	share := func(name string) float64 { return float64(lt.Self[name]) / float64(wallT) }
	simS := float64(counts.SimNs) / 1e9
	simPerS := 0.0
	if run := lt.Total["run"]; run > 0 {
		simPerS = simS / (float64(run) / 1e9)
	}
	loadMs := 0.0
	if _, ok := b.(*campaignBench); ok {
		loadMs = median(seconds(setups)) * 1e3
	}
	jobs := runtime.NumCPU()
	if jobs > b.ops() {
		jobs = b.ops()
	}
	metrics := map[string]float64{
		"campaign.load_ms":             loadMs,
		"experiments.open_us":          per("open", sess, 1e3),
		"system.run_us":                per("run", sess, 1e3),
		"kernel.sim_s_per_s":           simPerS,
		"experiments.result_us":        per("result", sess, 1e3),
		"stats.fold_ns_per_event":      per("fold", float64(counts.Events), 1),
		"campaign.append_us":           per("append", float64(lt.Count["append"]), 1e3),
		"experiments.spec_run_ms":      per("spec_run", 1, 1e6),
		"experiments.render_ms":        per("render", 1, 1e6),
		"open.share":                   share("open"),
		"run.share":                    share("run"),
		"result.share":                 share("result"),
		"fold.share":                   share("fold"),
		"append.share":                 share("append"),
		"cell.share":                   share("cell"),
		"trace.unaccounted_frac":       float64(int64(wallT)-lt.selfSum()) / float64(wallT),
		"trace.overhead_frac":          wallT.Seconds()/wallU.Seconds() - 1,
		"runner.parallel_efficiency":   wallU.Seconds() / (float64(jobs) * wall.Seconds()),
		"runtime.allocs_per_session":   float64(m1.Mallocs-m0.Mallocs) / sess,
		"runtime.alloc_kb_per_session": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / sess,
		"runtime.gc_cycles":            float64(m1.NumGC - m0.NumGC),
		"runtime.goroutines_leaked":    float64(leaked),
		"kernel.sim_s":                 simS,
		"kernel.bulk_elided":           float64(counts.BulkElided),
		"kernel.clock_ticks":           float64(counts.ClockTicks),
		"cpu.interrupts":               float64(counts.Interrupts),
		"cpu.itlb_misses":              float64(counts.ITLBMisses),
		"cpu.dtlb_misses":              float64(counts.DTLBMisses),
		"cpu.cache_misses":             float64(counts.CacheMisses),
		"cpu.domain_crossings":         float64(counts.DomainCrossing),
		"fscache.hits":                 float64(counts.FSCacheHits),
		"fscache.misses":               float64(counts.FSCacheMisses),
		"disk.served":                  float64(counts.DiskServed),
		"core.events":                  float64(counts.Events),
	}
	metrics["failed_frac"] = float64(chk.failed) / float64(chk.attempted)
	return chk.result(perLayer, metrics)
}

// printSplit prints the traced split: per layer, its span count, summed
// and self time, and self time as a share of the traced wall.
func printSplit(w io.Writer, lt layerTimes, wall time.Duration) {
	names := make([]string, 0, len(lt.Count))
	for name := range lt.Count {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return lt.Self[names[i]] > lt.Self[names[j]] })
	fmt.Fprintf(w, "%-10s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "share")
	for _, name := range names {
		fmt.Fprintf(w, "%-10s %8d %12.2f %12.2f %7.4f\n", name, lt.Count[name],
			float64(lt.Total[name])/1e6, float64(lt.Self[name])/1e6, float64(lt.Self[name])/float64(wall))
	}
	un := int64(wall) - lt.selfSum()
	fmt.Fprintf(w, "%-10s %8s %12s %12.2f %7.4f\n", "unaccounted", "", "", float64(un)/1e6, float64(un)/float64(wall))
}
