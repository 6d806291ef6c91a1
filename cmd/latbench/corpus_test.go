package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"latlab/internal/scenario"
)

// corpusDir is the committed scenario corpus this binary replays with
// -run corpus.
const corpusDir = "../../testdata/scenarios"

// TestCorpusGolden replays every committed scenario document through
// the full CLI path (-scenario, quick mode) and locks the rendering
// byte-for-byte. The ext-faults-* documents are also the registered
// experiments' declarations (embedded, see latlab.ExtFaultsScenarios),
// so they share golden files with TestGoldenQuick — that sharing is the
// proof that -scenario and the registry run a document identically —
// while the fuzzer-found fz-* documents get goldens
// of their own (regenerate with -update). Because fz-* documents pin
// their seed and machine, their cliff numbers reproduce here whatever
// the environment.
func TestCorpusGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario documents in %s", corpusDir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		path := path
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(doc.ID, func(t *testing.T) {
			t.Parallel()
			var out, errBuf strings.Builder
			if code := run([]string{"-quick", "-scenario", path}, &out, &errBuf); code != 0 {
				t.Fatalf("exit %d: %s", code, errBuf.String())
			}
			golden := filepath.Join("testdata", "golden", doc.ID+".txt")
			if *update && !strings.HasPrefix(doc.ID, "ext-") {
				// ext-faults-* goldens belong to TestGoldenQuick; rewriting them
				// here would mask a -scenario-vs-registered divergence.
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/latbench -update`): %v", err)
			}
			if !bytes.Equal(want, []byte(out.String())) {
				t.Fatalf("output differs from %s (lens %d vs %d):\n%s",
					golden, len(want), out.Len(), firstDiff(want, []byte(out.String())))
			}
		})
	}
}

// TestCorpusGoldenBatched replays the same corpus with -engine batched
// and requires every rendering to match the reference goldens byte for
// byte — the CLI-level proof that analytic idle-span elision changes
// nothing observable. It never rewrites goldens (those belong to
// TestCorpusGolden).
func TestCorpusGoldenBatched(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario documents in %s", corpusDir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		path := path
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(doc.ID, func(t *testing.T) {
			t.Parallel()
			var out, errBuf strings.Builder
			if code := run([]string{"-quick", "-engine", "batched", "-scenario", path}, &out, &errBuf); code != 0 {
				t.Fatalf("exit %d: %s", code, errBuf.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", doc.ID+".txt"))
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/latbench -update`): %v", err)
			}
			if !bytes.Equal(want, []byte(out.String())) {
				t.Fatalf("batched-engine output differs from the reference golden (lens %d vs %d):\n%s",
					len(want), out.Len(), firstDiff(want, []byte(out.String())))
			}
		})
	}
}

// TestRunCorpus exercises the -run corpus suite path end to end: every
// document compiles, runs, and renders, and a scenario that pins a
// machine conflicting with an explicit -machine is refused without
// -force.
func TestRunCorpus(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "corpus", "-corpus", corpusDir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, id := range []string{"ext-faults-disk", "ext-faults-irq", "ext-faults-cache"} {
		if !strings.Contains(out.String(), "["+id+":") {
			t.Errorf("corpus output missing %s", id)
		}
	}

	out.Reset()
	errBuf.Reset()
	// The corpus contains fz-* documents pinning machines other than
	// p200, so an explicit -machine must be refused...
	if code := run([]string{"-quick", "-run", "corpus", "-corpus", corpusDir, "-machine", "p200"}, &out, &errBuf); code != 1 {
		t.Fatalf("conflicting -machine: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "-force") {
		t.Errorf("conflict error should mention -force, got: %s", errBuf.String())
	}

	out.Reset()
	errBuf.Reset()
	// ...and -force lets the scenarios win.
	if code := run([]string{"-quick", "-run", "corpus", "-corpus", corpusDir, "-machine", "p200", "-force"}, &out, &errBuf); code != 0 {
		t.Fatalf("-force: exit %d: %s", code, errBuf.String())
	}
}
