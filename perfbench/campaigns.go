package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"latlab/internal/campaign"
	"latlab/internal/cpu"
	"latlab/internal/experiments"
	"latlab/internal/kernel"
	"latlab/internal/stats"
	"latlab/internal/system"
)

// batchSize is cmd/campaign's default -batch: machines stepped per
// worker as one system.Batch.
const batchSize = 8

// campaignBench is a campaign workload: a committed spec run through
// campaign.RunCells with cmd/campaign's defaults (batched engine, batch
// 8, one worker per CPU).
type campaignBench struct {
	specPath string // spec, relative to the checkout root
	refPath  string // reference ledger for the default seed
	quick    bool
	seed     uint64
	jobs     int

	c     *campaign.Campaign
	cells []campaign.Cell
}

// setup loads the spec, moves its seed range to the benchmark seed and
// expands the cells: the work that precedes the first session.
func (b *campaignBench) setup() error {
	c, err := campaign.LoadSpec(b.specPath)
	if err != nil {
		return err
	}
	c.Spec.Seeds.Start = rebaseSeed(c.Spec.Seeds.Start, c.Spec.Seeds.Count, b.seed)
	b.c, b.cells = c, campaign.Cells(c)
	return nil
}

// rebaseSeed moves a spec's seed range for benchmark seed s: the
// default seed keeps the committed range (so the reference applies),
// every other seed selects a disjoint range of the same size.
func rebaseSeed(start uint64, count int, s uint64) uint64 {
	return start + ((s-defaultSeed)%(1<<32))*uint64(count)
}

func (b *campaignBench) ops() int { return len(b.cells) }

func (b *campaignBench) sessions(i int) int { return b.cells[i].SeedCount }

func (b *campaignBench) options() campaign.Options {
	return campaign.Options{Jobs: b.jobs, Quick: b.quick, Engine: kernel.BatchedEngine(), Batch: batchSize}
}

// reference returns the committed ledger line of every cell, nil for a
// cell the reference does not hold. It applies only at the default
// seed.
func (b *campaignBench) reference() ([][]byte, error) {
	if b.seed != defaultSeed {
		return nil, nil
	}
	data, err := os.ReadFile(b.refPath)
	if err != nil {
		return nil, err
	}
	// Lines are keyed by the cell id a lenient decode finds in them; a
	// line too damaged to name its cell leaves that cell without a
	// reference, which the gate counts as a failure.
	byID := map[string][]byte{}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec campaign.Record
		if json.Unmarshal(line, &rec) == nil {
			byID[rec.Cell()] = line
		}
	}
	ref := make([][]byte, len(b.cells))
	for i, c := range b.cells {
		ref[i] = byID[c.ID()]
	}
	return ref, nil
}

// pass is the timed work: every cell through the campaign engine, each
// record appended to an in-memory ledger. It returns each cell's ledger
// line, nil for a quarantined cell.
func (b *campaignBench) pass() ([][]byte, error) {
	var buf bytes.Buffer
	type extent struct{ from, to int }
	at := map[string]extent{}
	sum, err := campaign.RunCells(context.Background(), b.c, b.cells, b.options(), func(rec campaign.Record) error {
		from := buf.Len()
		if err := campaign.AppendRecord(&buf, rec); err != nil {
			return err
		}
		at[rec.Cell()] = extent{from, buf.Len()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, q := range sum.Quarantined {
		fmt.Fprintf(os.Stderr, "perfbench: cell %s/%s/%s/%d+%d quarantined: %s\n",
			q.Scenario, q.Persona, q.Machine, q.SeedStart, q.SeedCount, q.Error)
	}
	out := make([][]byte, len(b.cells))
	for i, c := range b.cells {
		if e, ok := at[c.ID()]; ok {
			out[i] = buf.Bytes()[e.from:e.to]
		}
	}
	return out, nil
}

// simCounts are the simulated work counts of a replay, summed over its
// sessions. They are exact: a change that only speeds the simulator up
// leaves every one unchanged.
type simCounts struct {
	SimNs          int64 // simulated machine-nanoseconds
	BulkElided     int64
	ClockTicks     int64
	Interrupts     int64
	ITLBMisses     int64
	DTLBMisses     int64
	CacheMisses    int64
	DomainCrossing int64
	FSCacheHits    int64
	FSCacheMisses  int64
	DiskServed     int64
	Events         int64
}

// add reads one finished machine's counters through its public
// accessors; it must run before Result shuts the machine down.
func (c *simCounts) add(s *system.System) {
	k := s.K
	c.SimNs += int64(k.Now())
	c.BulkElided += k.BulkElided()
	c.ClockTicks += k.ClockTicks()
	c.Interrupts += k.CPU().Count(cpu.Interrupts)
	c.ITLBMisses += k.CPU().Count(cpu.ITLBMisses)
	c.DTLBMisses += k.CPU().Count(cpu.DTLBMisses)
	c.CacheMisses += k.CPU().Count(cpu.CacheMisses)
	c.DomainCrossing += k.CPU().Count(cpu.DomainCrossings)
	c.FSCacheHits += k.Cache().Hits()
	c.FSCacheMisses += k.Cache().Misses()
	c.DiskServed += k.Disk().Served()
}

// replay runs the same cells on one worker by calling each layer
// directly — the steps campaign.RunCells takes for a batched cell —
// with a span around every call when tr is non-nil. It returns each
// cell's ledger line and the summed simulated work counts.
func (b *campaignBench) replay(tr *tracer) ([][]byte, simCounts, error) {
	var counts simCounts
	out := make([][]byte, len(b.cells))
	opt := b.options()
	session := 0
	for ci, cell := range b.cells {
		if cell.Perception {
			return nil, counts, fmt.Errorf("cell %s: replay does not fold perception blocks", cell.ID())
		}
		cs := tr.begin("cell", ci, -1)
		rec, err := b.replayCell(tr, cs, cell, opt, &session, &counts)
		if err != nil {
			return nil, counts, fmt.Errorf("cell %s: %w", cell.ID(), err)
		}
		var buf bytes.Buffer
		as := tr.begin("append", ci, cs)
		err = campaign.AppendRecord(&buf, rec)
		tr.end(as)
		if err != nil {
			return nil, counts, err
		}
		tr.end(cs)
		out[ci] = buf.Bytes()
	}
	return out, counts, nil
}

// replayCell opens, steps, extracts and folds one cell's sessions in
// waves of opt.Batch, in seed order, and builds its ledger record.
func (b *campaignBench) replayCell(tr *tracer, cs int, cell campaign.Cell, opt campaign.Options, session *int, counts *simCounts) (campaign.Record, error) {
	if err := cell.Doc.Validate(); err != nil {
		return campaign.Record{}, err
	}
	sk := stats.NewSketch(opt.SketchAlpha())
	bat := system.NewBatch(opt.Batch)
	open := make([]*experiments.ScenarioSession, opt.Batch)
	for base := 0; base < cell.SeedCount; base += opt.Batch {
		n := min(opt.Batch, cell.SeedCount-base)
		for i := 0; i < n; i++ {
			seed := cell.SeedStart + uint64(base+i)
			sp := tr.begin("open", *session+i, cs)
			s, err := experiments.OpenScenarioSession(experiments.Config{
				Seed: seed, Quick: opt.Quick, Engine: opt.Engine, IdleArena: bat.Arena(i),
			}, cell.Doc)
			tr.end(sp)
			if err != nil {
				for _, o := range open[:i] {
					o.Close()
				}
				return campaign.Record{}, fmt.Errorf("seed %d: %w", seed, err)
			}
			open[i] = s
			bat.Open(i, s)
		}
		rs := tr.begin("run", cell.Index, cs)
		bat.Run()
		tr.end(rs)
		for i := 0; i < n; i++ {
			counts.add(open[i].Sys())
			ss := tr.begin("result", *session+i, cs)
			sr := open[i].Result()
			tr.end(ss)
			fs := tr.begin("fold", *session+i, cs)
			for _, ev := range sr.Row.Report.Events {
				sk.Add(ev.Latency.Milliseconds())
			}
			tr.end(fs)
			counts.Events += int64(len(sr.Row.Report.Events))
			open[i] = nil
		}
		bat.Reset()
		*session += n
	}
	return campaign.Record{
		Schema:    campaign.RecordSchemaVersion,
		Campaign:  b.c.Spec.ID,
		Scenario:  cell.Scenario,
		Persona:   cell.Persona,
		Machine:   cell.Machine,
		Faults:    cell.Faults,
		SeedStart: cell.SeedStart,
		SeedCount: cell.SeedCount,
		Quick:     opt.Quick,
		Sessions:  cell.SeedCount,
		Events:    sk.Count(),
		P50Ms:     sk.Quantile(0.50),
		P95Ms:     sk.Quantile(0.95),
		P99Ms:     sk.Quantile(0.99),
		MaxMs:     sk.Max(),
		MeanMs:    sk.Mean(),
		JitterMs:  sk.StdDev(),
		Sketch:    sk,
	}, nil
}
