// Package scenario defines the declarative scenario DSL: a
// schema-versioned JSON document describing one complete latency
// experiment — persona, machine profile, fault plan, input timeline,
// workload, and measurement windows — plus a validating parser and a
// seeded generative fuzzer.
//
// A scenario is pure data. The compiler that lowers a Doc onto the
// simulator (system.New + input.Script + faults + machine.Profile)
// lives in internal/experiments (FromScenario), so this package stays
// import-light and the document format can be parsed, generated, and
// round-tripped without booting anything. A new workload is a data
// file, not a code change: drop a document in testdata/scenarios/ and
// run it with `latbench -scenario file.json` (or the whole corpus with
// `latbench -run corpus`).
//
// The grammar is documented in DESIGN.md ("The scenario DSL"); the
// fuzz-found regression corpus is described in EXPERIMENTS.md.
package scenario

import (
	"fmt"
	"regexp"
	"strings"

	"latlab/internal/faults"
	"latlab/internal/machine"
	"latlab/internal/persona"
)

// SchemaVersion is the document schema this package parses. Documents
// must declare it explicitly so a future incompatible grammar can be
// detected instead of misread.
const SchemaVersion = 1

// Workload kinds understood by the compiler.
const (
	// KindTyping is a Notepad typing session: input comes from the
	// seeded typist model or from the document's explicit input
	// timeline; the session runs until the script drains plus a
	// trailing quiescence window.
	KindTyping = "typing"
	// KindPowerpoint is the paper's §5.2 PowerPoint task: launch, open,
	// page through, OLE-edit objects, save — completion-paced, like
	// Microsoft Test's wait-for-idle driver.
	KindPowerpoint = "powerpoint"
	// KindBrowse is the cache-warmth document browser: each page-down
	// reads the next window of a large file, cycling twice so the
	// second pass is cache-warm unless something evicts it.
	KindBrowse = "browse"
)

// WorkloadKinds lists every workload kind, in documentation order.
func WorkloadKinds() []string { return []string{KindTyping, KindPowerpoint, KindBrowse} }

// Doc is one parsed scenario document. The zero value is not a valid
// scenario; build documents with Parse (strict JSON) or Generate and
// check them with Validate.
type Doc struct {
	// Schema is the document schema version; must be SchemaVersion.
	Schema int `json:"schema"`
	// ID is the scenario's experiment id (slug: letters, digits, '-').
	ID string `json:"id"`
	// Title is the one-line spec title shown in listings.
	Title string `json:"title"`
	// Banner, when set, overrides Title as the rendered headline of the
	// result (the ext-faults documents use it to keep their exact
	// wording).
	Banner string `json:"banner,omitempty"`
	// Paper cites what the scenario reproduces or extends.
	Paper string `json:"paper,omitempty"`
	// Persona is the OS personality short name ("nt351", "nt40", "w95").
	Persona string `json:"persona"`
	// Machine pins a hardware profile short name; empty inherits the
	// run's -machine configuration (default p100).
	Machine string `json:"machine,omitempty"`
	// Seed pins the stochastic seed; 0 inherits the run's -seed. The
	// fuzzer always pins, so a corpus scenario reproduces its cliff
	// numbers whatever seed the replaying suite runs with.
	Seed uint64 `json:"seed,omitempty"`
	// Workload selects and sizes the driven application.
	Workload Workload `json:"workload"`
	// Input is an explicit input timeline (typing workloads only);
	// empty means the workload's default input model.
	Input []Stanza `json:"input,omitempty"`
	// Faults schedules degradation windows; nil means a clean machine.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Compare, when non-empty, runs the workload once per row (sharing
	// everything but the fault plan) and renders a clean-vs-degraded
	// comparison. Empty means a single measured run.
	Compare []Row `json:"compare,omitempty"`
	// Notes is free-form provenance — the fuzzer records the cliff
	// metrics and generation constraints that filed the scenario.
	Notes string `json:"notes,omitempty"`
}

// BannerOrTitle returns the rendered headline.
func (d Doc) BannerOrTitle() string {
	if d.Banner != "" {
		return d.Banner
	}
	return d.Title
}

// Workload selects the application model and its sizing. Full sizes
// the paper-scale run; Quick (nil = same as Full) the -quick run.
type Workload struct {
	// Kind is one of WorkloadKinds.
	Kind string `json:"kind"`
	// Full is the paper-sized parameter set.
	Full Params `json:"full"`
	// Quick, when non-nil, is the -quick parameter set.
	Quick *Params `json:"quick,omitempty"`
}

// Resolve returns the parameter set for the given mode.
func (w Workload) Resolve(quick bool) Params {
	if quick && w.Quick != nil {
		return *w.Quick
	}
	return w.Full
}

// Params sizes one workload run. Only the fields of the selected kind
// are consulted; zero values take kind-specific defaults chosen to
// match the pre-DSL hand-written experiments (see DESIGN.md).
type Params struct {
	// Chars is the typed character count (typing).
	Chars int `json:"chars,omitempty"`
	// WPM is the typist's words-per-minute pace (typing; default 70).
	WPM float64 `json:"wpm,omitempty"`
	// StartMs delays the first input (typing; default 300).
	StartMs float64 `json:"start_ms,omitempty"`
	// TrailingS runs the machine on after the last input so trailing
	// quiescence is recorded (typing; default 3).
	TrailingS float64 `json:"trailing_s,omitempty"`

	// Slides and ObjectSlides size the PowerPoint deck (powerpoint;
	// defaults: the paper's deck from apps.DefaultPowerpointParams).
	Slides       int   `json:"slides,omitempty"`
	ObjectSlides []int `json:"object_slides,omitempty"`
	// PageDowns[i] pages forward before OLE-editing object i; its
	// length is the edit count (powerpoint; default [9,10,10]).
	PageDowns []int `json:"page_downs,omitempty"`
	// ThinkMs is the completion-paced think time between chain steps
	// (powerpoint, browse; default 300).
	ThinkMs float64 `json:"think_ms,omitempty"`
	// DeadlineS bounds the completion-paced chain (powerpoint default
	// 380, browse default 110).
	DeadlineS float64 `json:"deadline_s,omitempty"`

	// Views is the number of 64-page windows browsed per pass (browse).
	Views int `json:"views,omitempty"`
}

// Stanza is one element of an explicit input timeline. Type selects
// which fields apply; times are absolute simulated milliseconds.
type Stanza struct {
	// Type is one of "typist", "text", "keydowns", "click", "command".
	Type string `json:"type"`
	// AtMs is the stanza's start time.
	AtMs float64 `json:"at_ms"`
	// Chars sizes the deterministic filler prose typed by "typist" and
	// "text" stanzas.
	Chars int `json:"chars,omitempty"`
	// WPM paces a "typist" stanza (seeded human model).
	WPM float64 `json:"wpm,omitempty"`
	// PerKeyMs paces "text" and "keydowns" stanzas (fixed interval; 0
	// means back-to-back — the §1.1 infinitely fast user).
	PerKeyMs float64 `json:"per_key_ms,omitempty"`
	// VK and Count describe a "keydowns" burst (default VK: page-down).
	VK    int64 `json:"vk,omitempty"`
	Count int   `json:"count,omitempty"`
	// HoldMs is a "click" stanza's press duration.
	HoldMs float64 `json:"hold_ms,omitempty"`
	// Cmd is a "command" stanza's application command id.
	Cmd int64 `json:"cmd,omitempty"`
}

// StanzaTypes lists the valid Stanza.Type values.
func StanzaTypes() []string { return []string{"typist", "text", "keydowns", "click", "command"} }

// FaultSpec schedules the document's degradation windows: either
// seed-derived (Kinds over SpanS, via faults.Generate) or explicit
// Windows — not both.
type FaultSpec struct {
	// Kinds are fault kind names (faults.KindNames) to derive windows
	// for from the run seed.
	Kinds []string `json:"kinds,omitempty"`
	// SpanS is the session span the derived windows are placed in.
	SpanS float64 `json:"span_s,omitempty"`
	// QuickSpanS overrides SpanS in -quick mode (0 = same).
	QuickSpanS float64 `json:"quick_span_s,omitempty"`
	// Windows lists explicit fault windows (the fuzzer uses these to
	// pin phase alignments it found).
	Windows []Window `json:"windows,omitempty"`
}

// Window is one explicit fault window.
type Window struct {
	// Kind is the fault kind name.
	Kind string `json:"kind"`
	// StartMs and DurationMs place the window in simulated time.
	StartMs    float64 `json:"start_ms"`
	DurationMs float64 `json:"duration_ms"`
	// Magnitude is the kind-specific severity (see faults.Kind).
	Magnitude float64 `json:"magnitude,omitempty"`
}

// Row is one run of a comparison scenario.
type Row struct {
	// Label tags the row in the rendering ("clean", "degraded").
	Label string `json:"label"`
	// Faulted arms the document's fault plan for this row.
	Faulted bool `json:"faulted"`
}

var idPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate checks the document against the grammar: version, id shape,
// persona/machine/fault-kind names, workload sizing, stanza types, and
// comparison rows. It returns the first problem found, phrased with
// the valid alternatives so a hand-written document is fixable from
// the error alone.
func (d Doc) Validate() error {
	if d.Schema != SchemaVersion {
		return fmt.Errorf("scenario: schema %d not supported (want %d)", d.Schema, SchemaVersion)
	}
	if !idPattern.MatchString(d.ID) {
		return fmt.Errorf("scenario: id %q is not a slug (lowercase letters, digits, dashes)", d.ID)
	}
	if d.Title == "" {
		return fmt.Errorf("scenario %s: missing title", d.ID)
	}
	if _, ok := persona.ByShort(d.Persona); !ok {
		return fmt.Errorf("scenario %s: unknown persona %q (valid: %s)",
			d.ID, d.Persona, strings.Join(personaShorts(), ", "))
	}
	if d.Machine != "" {
		if _, ok := machine.ByShort(d.Machine); !ok {
			return fmt.Errorf("scenario %s: unknown machine %q (valid: %s)",
				d.ID, d.Machine, strings.Join(machine.Shorts(), ", "))
		}
	}
	if err := d.validateWorkload(); err != nil {
		return err
	}
	if err := d.validateInput(); err != nil {
		return err
	}
	if err := d.validateFaults(); err != nil {
		return err
	}
	return d.validateCompare()
}

func (d Doc) validateWorkload() error {
	switch d.Workload.Kind {
	case KindTyping, KindPowerpoint, KindBrowse:
	default:
		return fmt.Errorf("scenario %s: unknown workload kind %q (valid: %s)",
			d.ID, d.Workload.Kind, strings.Join(WorkloadKinds(), ", "))
	}
	for _, prm := range d.paramSets() {
		if err := prm.validate(d.Workload.Kind); err != nil {
			return fmt.Errorf("scenario %s: %w", d.ID, err)
		}
	}
	return nil
}

// paramSets returns the parameter sets to validate: Full, plus Quick
// when present.
func (d Doc) paramSets() []Params {
	sets := []Params{d.Workload.Full}
	if d.Workload.Quick != nil {
		sets = append(sets, *d.Workload.Quick)
	}
	return sets
}

func (p Params) validate(kind string) error {
	for name, v := range map[string]float64{
		"chars": float64(p.Chars), "wpm": p.WPM, "start_ms": p.StartMs,
		"trailing_s": p.TrailingS, "slides": float64(p.Slides),
		"think_ms": p.ThinkMs, "deadline_s": p.DeadlineS, "views": float64(p.Views),
	} {
		if v < 0 {
			return fmt.Errorf("workload %s: negative %s", kind, name)
		}
	}
	for _, n := range p.PageDowns {
		if n < 0 {
			return fmt.Errorf("workload %s: negative page_downs entry", kind)
		}
	}
	for _, s := range p.ObjectSlides {
		if s < 0 {
			return fmt.Errorf("workload %s: negative object_slides entry", kind)
		}
	}
	switch kind {
	case KindTyping:
		if p.Chars == 0 {
			return fmt.Errorf("workload typing: chars must be positive")
		}
	case KindBrowse:
		if p.Views == 0 {
			return fmt.Errorf("workload browse: views must be positive")
		}
	}
	return nil
}

func (d Doc) validateInput() error {
	if len(d.Input) == 0 {
		return nil
	}
	if d.Workload.Kind != KindTyping {
		return fmt.Errorf("scenario %s: explicit input timelines require the typing workload", d.ID)
	}
	for i, st := range d.Input {
		if err := st.validate(); err != nil {
			return fmt.Errorf("scenario %s: input[%d]: %w", d.ID, i, err)
		}
	}
	return nil
}

func (s Stanza) validate() error {
	switch s.Type {
	case "typist":
		if s.Chars <= 0 || s.WPM <= 0 {
			return fmt.Errorf("typist stanza needs positive chars and wpm")
		}
	case "text":
		if s.Chars <= 0 {
			return fmt.Errorf("text stanza needs positive chars")
		}
	case "keydowns":
		if s.Count <= 0 {
			return fmt.Errorf("keydowns stanza needs positive count")
		}
	case "click", "command":
	default:
		return fmt.Errorf("unknown stanza type %q (valid: %s)",
			s.Type, strings.Join(StanzaTypes(), ", "))
	}
	if s.AtMs < 0 || s.PerKeyMs < 0 || s.HoldMs < 0 {
		return fmt.Errorf("%s stanza has a negative time", s.Type)
	}
	return nil
}

func (d Doc) validateFaults() error {
	f := d.Faults
	if f == nil {
		return nil
	}
	if len(f.Kinds) > 0 && len(f.Windows) > 0 {
		return fmt.Errorf("scenario %s: faults.kinds and faults.windows are mutually exclusive", d.ID)
	}
	if len(f.Kinds) == 0 && len(f.Windows) == 0 {
		return fmt.Errorf("scenario %s: faults block schedules nothing (set kinds or windows)", d.ID)
	}
	if len(f.Kinds) > 0 && f.SpanS <= 0 {
		return fmt.Errorf("scenario %s: derived faults need a positive span_s", d.ID)
	}
	if f.SpanS < 0 || f.QuickSpanS < 0 {
		return fmt.Errorf("scenario %s: negative fault span", d.ID)
	}
	for _, name := range f.Kinds {
		if _, ok := faults.KindByName(name); !ok {
			return fmt.Errorf("scenario %s: unknown fault kind %q (valid: %s)",
				d.ID, name, strings.Join(faults.KindNames(), ", "))
		}
	}
	for i, w := range f.Windows {
		if _, ok := faults.KindByName(w.Kind); !ok {
			return fmt.Errorf("scenario %s: faults.windows[%d]: unknown fault kind %q (valid: %s)",
				d.ID, i, w.Kind, strings.Join(faults.KindNames(), ", "))
		}
		if w.StartMs < 0 || w.DurationMs <= 0 || w.Magnitude < 0 {
			return fmt.Errorf("scenario %s: faults.windows[%d]: malformed window", d.ID, i)
		}
	}
	return nil
}

func (d Doc) validateCompare() error {
	seen := map[string]bool{}
	faulted := false
	for i, r := range d.Compare {
		if r.Label == "" {
			return fmt.Errorf("scenario %s: compare[%d] has no label", d.ID, i)
		}
		if seen[r.Label] {
			return fmt.Errorf("scenario %s: duplicate compare label %q", d.ID, r.Label)
		}
		seen[r.Label] = true
		faulted = faulted || r.Faulted
	}
	if faulted && d.Faults == nil {
		return fmt.Errorf("scenario %s: a compare row is faulted but no faults are declared", d.ID)
	}
	return nil
}

// personaShorts lists the valid persona short names.
func personaShorts() []string {
	var out []string
	for _, p := range persona.All() {
		out = append(out, p.Short)
	}
	return out
}
