package experiments

import (
	"fmt"

	"latlab/internal/faults"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// This file is the one path every scenario run takes: resolve the
// document, open a session, step it to its end, take the result. The
// stepping is a milestone program — a single Run(until) for typing, the
// 500 ms poll-slice loop plus 2 s trailing for completion-paced chains
// — so the batch engine (internal/system.Batch) can interleave many
// sessions on one worker, and a session stepped inside a batch is
// byte-identical to one run alone (TestBatchSessionEquivalence pins
// this). The hand-written PowerPoint experiments (fig8, fig9) step the
// same chain program.

// Session program kinds.
const (
	// sessOnce runs to a single precomputed end time (typing).
	sessOnce uint8 = iota
	// sessChain polls a completion-paced chain in 500 ms slices until
	// the chain reports done, then switches to sessTrailing.
	sessChain
	// sessTrailing runs the 2 s trailing quiescence after a chain.
	sessTrailing
)

// ScenarioSession is one opened, not-yet-finished scenario run: a
// booted machine plus the driver's milestone program. It implements
// system.BatchSession so a batch can step it, or run steps it alone;
// Result extracts the identical ScenarioResult either way.
type ScenarioSession struct {
	r      *rig
	label  string
	thread *kernel.Thread

	kind      uint8
	target    simtime.Time
	deadline  simtime.Time
	chainDone *simtime.Time
	finished  bool
	closed    bool

	// Result metadata, filled by resolvedScenario.open.
	doc     scenario.Doc
	machine string
	seed    uint64
	plan    faults.Plan
}

// Sys implements system.BatchSession.
func (s *ScenarioSession) Sys() *system.System { return s.r.sys }

// NextTarget implements system.BatchSession: the next simulated
// instant the session's program needs control at, simtime.Never once
// the program has finished.
func (s *ScenarioSession) NextTarget() simtime.Time {
	if s.finished {
		return simtime.Never
	}
	return s.target
}

// OnTarget implements system.BatchSession: the machine's clock is at
// the target; execute the program step and compute the next target.
// A chain runs full 500 ms slices while it is unfinished and the
// deadline unreached, then one 2 s trailing slice so the last event's
// quiescence is recorded.
func (s *ScenarioSession) OnTarget() {
	now := s.r.sys.K.Now()
	switch s.kind {
	case sessOnce, sessTrailing:
		s.finished = true
	case sessChain:
		if *s.chainDone != 0 {
			s.kind = sessTrailing
			s.target = now.Add(2 * simtime.Second)
			return
		}
		if now >= s.deadline {
			panic(fmt.Sprintf("experiments: chain did not complete by %v", s.deadline))
		}
		s.target = now.Add(500 * simtime.Millisecond)
	}
}

// openChain installs a completion-paced chain driver and wraps it as a
// session: 500 ms poll slices until the chain completes (panicking if
// it misses deadline), then 2 s trailing time so the last event's
// quiescence is recorded. t is the thread the analysis row extracts;
// callers that only step the chain may pass nil.
func openChain(label string, r *rig, t *kernel.Thread, steps []chainStep, sync bool, deadline simtime.Time) *ScenarioSession {
	s := &ScenarioSession{r: r, label: label, thread: t,
		kind: sessChain, deadline: deadline, chainDone: new(simtime.Time)}
	driveChain(r.sys, steps, sync, s.chainDone)
	s.target = r.sys.K.Now().Add(500 * simtime.Millisecond)
	return s
}

// run steps the session's program to its end on the session's own
// machine — what a batch of width one does, without the batch.
func (s *ScenarioSession) run() {
	for !s.finished {
		s.r.sys.K.Run(s.target)
		s.OnTarget()
	}
}

// row extracts the driver's analysis row and releases the machine.
func (s *ScenarioSession) row() ExtFaultsRow {
	row := faultsRow(s.label, s.r, s.thread, s.r.sys.K.Now())
	s.Close()
	return row
}

// Close releases the session's machine. Idempotent; a batch calls it
// on abandoned sessions when a sibling fails mid-batch.
func (s *ScenarioSession) Close() {
	if !s.closed {
		s.closed = true
		s.r.shutdown()
	}
}

// Result extracts the finished session's outcome. Every scenario run —
// a single run, each compare row, a campaign session — ends here.
func (s *ScenarioSession) Result() *ScenarioResult {
	if !s.finished {
		panic("experiments: Result on an unfinished session")
	}
	return &ScenarioResult{
		DocID:   s.doc.ID,
		Banner:  s.doc.BannerOrTitle(),
		Persona: s.doc.Persona,
		Machine: s.machine,
		Seed:    s.seed,
		Plan:    s.plan,
		Row:     s.row(),
	}
}

// OpenScenarioSession resolves doc against cfg and boots its session
// without running it. The caller steps it (directly or inside a
// system.Batch) until NextTarget returns simtime.Never, then calls
// Result. Compare documents run several sessions and are refused.
func OpenScenarioSession(cfg Config, doc scenario.Doc) (*ScenarioSession, error) {
	if len(doc.Compare) > 0 {
		return nil, fmt.Errorf("scenario %s: compare scenarios cannot run as batched sessions", doc.ID)
	}
	rs, err := resolveScenario(cfg, doc)
	if err != nil {
		return nil, err
	}
	return rs.open("run", rs.plan), nil
}

// resolvedScenario is a document resolved against a run Config: the
// effective config (a pinned seed or machine applied), the compiled
// workload, its session opener and its fault plan.
type resolvedScenario struct {
	doc    scenario.Doc
	cfg    Config
	sc     scRun
	opener func(string, Config, scRun, faults.Plan) *ScenarioSession
	plan   faults.Plan
}

// resolveScenario is the one document resolver: a pinned doc.Seed or
// doc.Machine overrides the configured one, -quick selects the quick
// parameter set, and the fault plan is derived from the effective seed.
func resolveScenario(cfg Config, doc scenario.Doc) (resolvedScenario, error) {
	if doc.Seed != 0 {
		cfg.Seed = doc.Seed
	}
	if doc.Machine != "" {
		prof, ok := machine.ByShort(doc.Machine)
		if !ok {
			return resolvedScenario{}, fmt.Errorf("scenario %s: unknown machine %q", doc.ID, doc.Machine)
		}
		cfg.Machine = prof
	}
	p, ok := persona.ByShort(doc.Persona)
	if !ok {
		return resolvedScenario{}, fmt.Errorf("scenario %s: unknown persona %q", doc.ID, doc.Persona)
	}
	rs := resolvedScenario{doc: doc, cfg: cfg,
		sc:   scRun{p: p, prm: doc.Workload.Resolve(cfg.Quick), stanzas: doc.Input, seed: cfg.Seed},
		plan: scenarioPlan(doc, cfg)}
	switch doc.Workload.Kind {
	case scenario.KindTyping:
		rs.opener = openTyping
	case scenario.KindPowerpoint:
		rs.opener = openPPT
	case scenario.KindBrowse:
		rs.opener = openBrowser
	default:
		return resolvedScenario{}, fmt.Errorf("scenario: no driver for workload kind %q", doc.Workload.Kind)
	}
	return rs, nil
}

// open boots one session of the resolved document under plan; label
// tags its analysis row.
func (rs resolvedScenario) open(label string, plan faults.Plan) *ScenarioSession {
	s := rs.opener(label, rs.cfg, rs.sc, plan)
	s.doc = rs.doc
	s.machine = rs.cfg.MachineProfile().Short
	s.seed = rs.cfg.Seed
	s.plan = plan
	return s
}
