package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMetricNamesMatchBenchmarkJSON pins the metric and workload lists
// the program reports to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	slices.Sort(names)
	slices.Sort(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	for _, c := range []struct {
		kind       string
		decl, have []metric
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.have) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", c.kind, len(c.decl), len(c.have))
			continue
		}
		for i := range c.decl {
			if c.decl[i] != c.have[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program reports %+v", c.kind, i, c.decl[i], c.have[i])
			}
		}
	}
}

// TestSelfTime checks the split on nested spans: a parent's self time
// excludes its children, and the self times sum to the covered wall.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "cell", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "open", ID: 0, Parent: 0, Start: 10, End: 30},
		{Name: "run", ID: 0, Parent: 0, Start: 30, End: 90},
		{Name: "append", ID: 0, Parent: 0, Start: 90, End: 95},
	}}
	lt := tr.split()
	if lt.Self["cell"] != 15 || lt.Self["open"] != 20 || lt.Self["run"] != 60 || lt.Total["cell"] != 100 {
		t.Fatalf("split = %+v", lt)
	}
	if lt.selfSum() != 100 {
		t.Fatalf("self times sum to %d, want the 100 the top span covers", lt.selfSum())
	}
}

// oneCellDemo writes a spec for the demo's first cell (campaign id,
// scenario and seeds as committed) and returns its path.
func oneCellDemo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	doc, err := os.ReadFile(filepath.Join("..", "testdata", "campaigns", "demo-type.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"schema": 1, "id": "demo", "title": "first demo cell",
  "personas": ["nt351"], "machines": ["p100"], "scenarios": ["demo-type.json"],
  "seeds": {"start": 1, "count": 210, "per_cell": 210}}`
	for name, data := range map[string][]byte{"demo-type.json": doc, "demo.json": []byte(spec)} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "demo.json")
}

// tracedOneCell runs the traced measurement of the demo's first cell
// against the given reference ledger.
func tracedOneCell(t *testing.T, refPath string) *result {
	t.Helper()
	b := &campaignBench{specPath: oneCellDemo(t), refPath: refPath, quick: true, seed: defaultSeed, jobs: 2}
	var out bytes.Buffer
	res, err := runTraced(b, filepath.Join(t.TempDir(), "spans.csv"), &out)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracedSplitAccountsForWall runs the traced replay of one demo
// cell: the layers' self times must account for the traced wall, and
// the unaccounted share is what the benchmark reports.
func TestTracedSplitAccountsForWall(t *testing.T) {
	res := tracedOneCell(t, filepath.Join("..", "testdata", "campaigns", "demo-ledger.jsonl"))
	if !res.Correct || res.Metrics["failed_frac"].Value != 0 {
		t.Fatalf("first demo cell failed its gates: %+v", res)
	}
	sum := 0.0
	for _, name := range []string{"open.share", "run.share", "result.share", "fold.share", "append.share", "cell.share"} {
		v := res.Metrics[name].Value
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
		sum += v
	}
	un := res.Metrics["trace.unaccounted_frac"].Value
	t.Logf("layer shares sum to %.6f; unaccounted %.6f", sum, un)
	if math.Abs(sum+un-1) > 1e-9 {
		t.Errorf("shares %.9f + unaccounted %.9f != 1", sum, un)
	}
	if un < 0 || un > 0.01 {
		t.Errorf("unaccounted share %.4f outside [0, 0.01]", un)
	}
}

// TestCorruptedReferenceFails flips one byte of the committed demo
// ledger's first record: that cell must count as failed.
func TestCorruptedReferenceFails(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "testdata", "campaigns", "demo-ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"max_ms":`)) + len(`"max_ms":`)
	data[i] = '9'
	ref := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(ref, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res := tracedOneCell(t, ref)
	if res.Correct || res.Metrics["failed_frac"].Value <= 0 {
		t.Fatalf("corrupted reference passed: correct=%v failed=%d/%d failed_frac=%v",
			res.Correct, res.Failed, res.Attempted, res.Metrics["failed_frac"].Value)
	}
}
