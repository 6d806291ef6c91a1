package experiments

import (
	"fmt"
	"io"
	"io/fs"

	"latlab"
	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/faults"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// The ext-faults-* family reruns the paper's latency analysis under
// deterministic injected degradations (internal/faults): the same
// workload is simulated clean and degraded on NT 4.0, and the rendered
// comparison shows how each fault class moves the latency distribution
// — tail inflation for disk faults, interarrival clustering for
// interrupt storms, warm-state collapse for cache pressure. The paper's
// multi-second PowerPoint stalls (Table 1) are exactly this kind of
// adverse-condition latency; here we produce them on demand.

// ExtFaultsRow is one (clean or degraded) run's analysis.
type ExtFaultsRow struct {
	Label  string
	Report *core.Report
	// Think/wait FSM breakdown (§2.4 methodology) over the run.
	ThinkMs, WaitMs float64
	Transitions     int
	// Machine-level fault counters.
	Retries, MediaErrors, IOErrors, ForcedEvictions, Interrupts int64
}

// ExtFaultsResult is a clean-vs-degraded comparison under one fault
// plan.
type ExtFaultsResult struct {
	ID    string
	Title string
	Plan  faults.Plan
	Rows  []ExtFaultsRow // exactly {clean, degraded}
}

// ExperimentID implements Result.
func (r *ExtFaultsResult) ExperimentID() string { return r.ID }

// Render implements Result.
func (r *ExtFaultsResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (robustness) — %s, NT 4.0 clean vs degraded\n\n", r.Title)
	fmt.Fprintf(w, "  fault plan (seed %d):\n", r.Plan.Seed)
	for _, f := range r.Plan.Faults {
		fmt.Fprintf(w, "    %s\n", f)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		rep := row.Report
		ia := rep.Interarrival(core.PerceptionThresholdMs)
		fmt.Fprintf(w, "  %-8s %4d events  mean %s  >0.1s: %d  total latency %.2fs\n",
			row.Label+":", len(rep.Events), fmtMs(rep.Summary().Mean),
			rep.CountAbove(core.PerceptionThresholdMs), rep.TotalLatency().Seconds())
		fmt.Fprintf(w, "           interarrival of >0.1s events: n=%d mean %.2fs sd %.2fs\n",
			ia.Count, ia.MeanSec, ia.StdDevSec)
		fmt.Fprintf(w, "           think %.1fs / wait %.1fs (%d transitions)\n",
			row.ThinkMs/1000, row.WaitMs/1000, row.Transitions)
		fmt.Fprintf(w, "           machine: retries=%d media-errors=%d io-errors=%d evictions=%d interrupts=%d\n",
			row.Retries, row.MediaErrors, row.IOErrors, row.ForcedEvictions, row.Interrupts)
	}
	fmt.Fprintln(w)
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *ExtFaultsResult) Artifacts() []Artifact {
	var out []Artifact
	for _, row := range r.Rows {
		out = append(out, EventsArtifact(row.Label, row.Report.Events),
			ReportArtifact(row.Label, row.Report))
	}
	return out
}

// faultsTarget builds the arming target for a booted rig: a dedicated
// "indexer" background thread (the inversion victim), boosted above the
// application during PriorityInversion windows.
func faultsTarget(r *rig, needBackground bool) faults.Target {
	t := faults.Target{K: r.sys.K, BoostPrio: system.AppPrio + 2}
	if needBackground {
		burst := r.sys.P.Kernel.ClockInterrupt
		burst.Name = "indexer"
		burst.BaseCycles = 1_200_000 // 12 ms at 100 MHz
		sleep := true
		t.Background = r.sys.K.SpawnLoop("indexer", kernel.KernelProc, system.BackgroundPrio, func(lc *kernel.LoopTC) bool {
			if sleep {
				lc.Sleep(40 * simtime.Millisecond)
			} else {
				lc.Compute(burst)
			}
			sleep = !sleep
			return true
		})
	}
	return t
}

// openPPT boots the paper's PowerPoint task (launch, open, page
// through, OLE edit, save — §5.2) under plan without running it. label
// tags the analysis row; an empty plan is the clean baseline. The deck,
// paging, and pacing come from the compiled scenario run: empty
// PageDowns means the full paper task ([9,10,10]), and each PageDowns
// entry is one OLE edit.
func openPPT(label string, cfg Config, sc scRun, plan faults.Plan) *ScenarioSession {
	params := apps.DefaultPowerpointParams()
	if sc.prm.Slides != 0 {
		params.Slides = sc.prm.Slides
	}
	if len(sc.prm.ObjectSlides) > 0 {
		params.ObjectSlides = sc.prm.ObjectSlides
	}
	pageDowns := sc.prm.PageDowns
	if len(pageDowns) == 0 {
		pageDowns = []int{9, 10, 10}
	}
	r := newRig(cfg, sc.p, 400)
	faults.NewClock(plan).Arm(faultsTarget(r, false))
	ppt := apps.NewPowerpoint(r.sys, params)

	steps := pptSteps(pageDowns, simtime.FromMillis(defF(sc.prm.ThinkMs, 300)))
	return openChain(label, r, ppt.Thread(), steps, true,
		simtime.Time(secs(defF(sc.prm.DeadlineS, 380))))
}

// openTyping boots a paced Notepad typing session under plan without
// running it. Input comes from the scenario run: the seeded typist by
// default, or the document's explicit stanza timeline. The whole input
// script is installed up front, so the milestone program is one Run to
// the script end plus trailing time.
func openTyping(label string, cfg Config, sc scRun, plan faults.Plan) *ScenarioSession {
	r := newRig(cfg, sc.p, 240)
	faults.NewClock(plan).Arm(faultsTarget(r, true))
	n := apps.NewNotepad(r.sys, 250_000)
	script := sc.scenarioScript(defF(sc.prm.StartMs, 300))
	script.Install(r.sys)
	return &ScenarioSession{r: r, label: label, thread: n.Thread(),
		kind: sessOnce, target: script.End().Add(secs(defF(sc.prm.TrailingS, 3)))}
}

// faultsRow extracts the common analysis from a finished rig.
func faultsRow(label string, r *rig, t *kernel.Thread, end simtime.Time) ExtFaultsRow {
	events := r.extract(t, true)
	f := core.DriveFSM(r.pr, t.ID(), end)
	k := r.sys.K
	return ExtFaultsRow{
		Label:           label,
		Report:          core.NewReport(events, simtime.Duration(end)),
		ThinkMs:         f.ThinkTime().Milliseconds(),
		WaitMs:          f.WaitTime().Milliseconds(),
		Transitions:     len(f.Transitions()),
		Retries:         k.Disk().Retries(),
		MediaErrors:     k.Disk().MediaErrors(),
		IOErrors:        k.IOErrors(),
		ForcedEvictions: k.Cache().ForcedEvictions(),
		Interrupts:      k.CPU().Count(cpu.Interrupts),
	}
}

// openBrowser boots, without running it, a document-browser session
// whose warmth lives in the buffer cache: each page-down reads the next
// 64-page window of a large report file in small chunks, cycling
// through the file twice, so the second pass is cache-warm on a clean
// machine and cold again under eviction pressure — the paper's "effects
// of the file system cache" phenomenon produced (and destroyed) on
// demand.
func openBrowser(label string, cfg Config, sc scRun, plan faults.Plan) *ScenarioSession {
	const viewPages, chunk = 64, 8
	views := sc.prm.Views
	r := newRig(cfg, sc.p, 120)
	faults.NewClock(plan).Arm(faultsTarget(r, false))

	db := r.sys.K.Cache().AddFile("reports.db", 600_000, int64(views)*viewPages)
	browse := cpu.Segment{Name: "browse", BaseCycles: 400_000,
		Instructions: 250_000, DataRefs: 90_000,
		CodePages: []uint64{700, 701, 702}, DataPages: []uint64{720, 721}}
	view := int64(0)
	app := r.sys.SpawnApp("browser", func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind != kernel.WMKeyDown {
				continue
			}
			base := (view % int64(views)) * viewPages
			for q := int64(0); q < viewPages; q += chunk {
				tc.ReadFile(db, base+q, chunk)
			}
			tc.Compute(browse)
			view++
		}
	})

	var steps []chainStep
	think := simtime.FromMillis(defF(sc.prm.ThinkMs, 300))
	for i := 0; i < 2*views; i++ {
		steps = append(steps, step(kernel.WMKeyDown, input.VKPageDown, think))
	}
	return openChain(label, r, app, steps, true,
		simtime.Time(secs(defF(sc.prm.DeadlineS, 110))))
}

func init() {
	// The ext-faults family is declared only by its scenario documents;
	// each registers through the scenario compiler.
	paths, err := fs.Glob(latlab.ExtFaultsScenarios, "testdata/scenarios/*.json")
	if err != nil {
		panic(err)
	}
	for _, path := range paths {
		data, err := latlab.ExtFaultsScenarios.ReadFile(path)
		if err != nil {
			panic(err)
		}
		doc, err := scenario.Parse(data)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", path, err))
		}
		spec, err := FromScenario(doc)
		if err != nil {
			panic(err)
		}
		Register(spec)
	}
}
