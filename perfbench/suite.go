package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"latlab/internal/experiments"
	"latlab/internal/machine"
	"latlab/internal/runner"
)

// latbenchSeed is latbench's default -seed, at which the goldens were
// rendered.
const latbenchSeed = 1996

// suiteBench is the paper-suite workload: every registered experiment
// at quick sizing on latbench's defaults (reference engine, machine
// p100, one worker per CPU), rendered as `latbench -quick -run <id>`
// prints it.
type suiteBench struct {
	goldenDir string // cmd/latbench/testdata/golden, read only
	seed      uint64
	jobs      int

	specs []experiments.Spec
	cfg   experiments.Config
}

// setup reads the registry and builds the run configuration.
func (b *suiteBench) setup() error {
	prof, ok := machine.ByShort("p100")
	if !ok {
		return fmt.Errorf("machine p100 is not registered")
	}
	b.specs = experiments.All()
	b.cfg = experiments.Config{Seed: latbenchSeed + (b.seed - defaultSeed), Quick: true, Machine: prof}
	return nil
}

func (b *suiteBench) ops() int { return len(b.specs) }

// sessions counts one per experiment: the suite's throughput is
// experiments per second.
func (b *suiteBench) sessions(int) int { return 1 }

// reference returns each experiment's golden rendering at the default
// seed.
func (b *suiteBench) reference() ([][]byte, error) {
	if b.seed != defaultSeed {
		return nil, nil
	}
	ref := make([][]byte, len(b.specs))
	for i, s := range b.specs {
		data, err := os.ReadFile(filepath.Join(b.goldenDir, s.ID+".txt"))
		if err != nil {
			return nil, err
		}
		ref[i] = data
	}
	return ref, nil
}

// render writes one result exactly as latbench does for a single
// experiment.
func render(buf *bytes.Buffer, s experiments.Spec, res experiments.Result) error {
	if err := res.Render(buf); err != nil {
		return fmt.Errorf("rendering %s: %w", s.ID, err)
	}
	fmt.Fprintf(buf, "\n[%s: %s — reproduces %s]\n", s.ID, s.Title, s.Paper)
	return nil
}

// pass is the timed work: the whole suite through internal/runner,
// each result rendered as it is collected. It returns each
// experiment's rendering, nil for a failed experiment.
func (b *suiteBench) pass() ([][]byte, error) {
	out := make([][]byte, len(b.specs))
	i := 0
	_, err := runner.Run(context.Background(), b.specs, runner.Options{Jobs: b.jobs, Config: b.cfg}, func(o runner.Outcome) error {
		defer func() { i++ }()
		if o.Record.Failed() {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %s\n", o.Spec.ID, o.Record.Error)
			return nil
		}
		var buf bytes.Buffer
		if err := render(&buf, o.Spec, o.Result); err != nil {
			return err
		}
		out[i] = buf.Bytes()
		return nil
	})
	return out, err
}

// replay runs the suite sequentially on one goroutine, calling
// Spec.Run and Result.Render directly with a span around each when tr
// is non-nil.
func (b *suiteBench) replay(tr *tracer) ([][]byte, simCounts, error) {
	out := make([][]byte, len(b.specs))
	for i, s := range b.specs {
		cfg := b.cfg
		cfg.TraceTag = s.ID
		sp := tr.begin("spec_run", i, -1)
		res, err := s.Run(context.Background(), cfg)
		tr.end(sp)
		if err != nil {
			return nil, simCounts{}, fmt.Errorf("%s: %w", s.ID, err)
		}
		var buf bytes.Buffer
		rp := tr.begin("render", i, -1)
		err = render(&buf, s, res)
		tr.end(rp)
		if err != nil {
			return nil, simCounts{}, err
		}
		out[i] = buf.Bytes()
	}
	return out, simCounts{}, nil
}
