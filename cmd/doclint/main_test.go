package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path -> contents under a
// fresh temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, body := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runLint runs doclint -root on the tree and returns (exit, stdout,
// stderr).
func runLint(t *testing.T, root string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root}, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanTree(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ok/ok.go": `// Package ok is fully documented.
package ok

// Answer is the answer.
const Answer = 42

// Widget is a documented type.
type Widget struct{}

// Spin is a documented method.
func (w *Widget) Spin() {}

// Do is a documented function.
func Do() {}
`,
		"go.mod": "module example.com/clean\n",
		"cmd/use/main.go": `package main

import "example.com/clean/internal/ok"

func main() {
	ok.Do()
	new(ok.Widget).Spin()
}
`,
		"README.md":     "# Top\n\nSee [the doc](docs/guide.md) and [site](https://example.com) and [top](#top).\n",
		"docs/guide.md": "Back to [readme](../README.md).\n",
	})
	code, out, errOut := runLint(t, root)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out, errOut)
	}
	if !strings.Contains(out, "doclint: ok") {
		t.Errorf("stdout = %q, want doclint: ok", out)
	}
}

func TestMissingPackageComment(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/bare/bare.go": "package bare\n",
	})
	code, out, errOut := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "package bare has no package comment") {
		t.Errorf("stdout = %q, want missing-package-comment finding", out)
	}
	if !strings.Contains(errOut, "doclint: 1 problems") {
		t.Errorf("stderr = %q, want problem count", errOut)
	}
}

func TestUndocumentedExports(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/gaps/gaps.go": `// Package gaps has documentation gaps.
package gaps

const Naked = 1

type Bare struct{}

func (b Bare) Method() {}

func Loose() {}

type hidden struct{}

func (h *hidden) Exported() {} // method of unexported type: exempt

func private() {}
`,
	})
	code, out, _ := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, out)
	}
	for _, want := range []string{
		"exported const Naked has no doc comment",
		"exported type Bare has no doc comment",
		"exported method Bare.Method has no doc comment",
		"exported function Loose has no doc comment",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q; got:\n%s", want, out)
		}
	}
	for _, reject := range []string{"hidden", "private"} {
		if strings.Contains(out, reject) {
			t.Errorf("stdout flags unexported symbol %q:\n%s", reject, out)
		}
	}
}

func TestDocumentedGroupCoversMembers(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/grouped/grouped.go": `// Package grouped documents its const block once.
package grouped

// Sizes of things, in the repo's usual one-comment-per-block idiom.
const (
	Small = 1
	Large = 2
)
`,
	})
	code, out, errOut := runLint(t, root)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out, errOut)
	}
}

func TestTestFilesAndTestdataExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ok/ok.go": `// Package ok is documented.
package ok
`,
		"internal/ok/ok_test.go": `package ok

func Undocumented() {}
`,
		"internal/ok/testdata/frag.go": "package broken syntax here\n",
	})
	code, out, errOut := runLint(t, root)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out, errOut)
	}
}

func TestBrokenMarkdownLink(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": "A [dangling link](missing.md) here.\n",
	})
	code, out, _ := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, out)
	}
	if !strings.Contains(out, "README.md:1: broken link missing.md") {
		t.Errorf("stdout = %q, want broken-link finding with file:line", out)
	}
}

func TestMarkdownSkipsFencesAnchorsAndSchemes(t *testing.T) {
	root := writeTree(t, map[string]string{
		"NOTES.md": "# Section\n\n```\n[inside fence](nope.md)\n```\n" +
			"[anchor](#section) [web](https://example.com/x.md) [mail](mailto:a@b.c)\n" +
			"[frag ok](REAL.md#part)\n",
		"REAL.md": "# Part\n\nreal\n",
	})
	code, out, errOut := runLint(t, root)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out, errOut)
	}
}

func TestSlugify(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"Usage", "usage"},
		{"The 1996 methodology on 2026 hardware", "the-1996-methodology-on-2026-hardware"},
		{"`latbench` — the suite", "latbench--the-suite"},
		{"A.B/C (d)", "abc-d"},
	} {
		if got := slugify(tc.in); got != tc.want {
			t.Errorf("slugify(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBrokenAnchors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": "# Alpha\n\n[self ok](#alpha) [self bad](#beta)\n" +
			"[cross ok](OTHER.md#gamma-delta) [cross bad](OTHER.md#nope)\n",
		"OTHER.md": "## Gamma Delta\n",
	})
	code, out, _ := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, out)
	}
	for _, want := range []string{
		"README.md:3: broken anchor #beta",
		"README.md:4: broken anchor OTHER.md#nope",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q; got:\n%s", want, out)
		}
	}
	for _, reject := range []string{"#alpha", "gamma-delta"} {
		if strings.Contains(out, reject) {
			t.Errorf("stdout flags valid anchor %q:\n%s", reject, out)
		}
	}
}

func TestDuplicateHeadingAnchors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"DOC.md": "# Setup\n\n# Setup\n\n[first](#setup) [second](#setup-1) [third](#setup-2)\n",
	})
	code, out, _ := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, out)
	}
	if !strings.Contains(out, "broken anchor #setup-2") {
		t.Errorf("stdout = %q, want #setup-2 flagged", out)
	}
	if strings.Contains(out, "#setup-1") {
		t.Errorf("stdout flags valid duplicate-suffix anchor:\n%s", out)
	}
}

// TestTestOnlyExports pins the unused-export check on a fixture shaped
// like this repository: a root module with internal/ and cmd/, plus a
// sibling module (go.mod of its own, importing the root module's
// internal package the way perfbench does).
func TestTestOnlyExports(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/repo\n",
		"internal/lib/lib.go": `// Package lib has exports with every kind of caller.
package lib

// UsedByCmd is called from cmd/.
func UsedByCmd() int { return helper() }

// UsedBySibling is called only from the sibling module.
func UsedBySibling() {}

// OnlyTests is called only from a _test.go file.
func OnlyTests() {}

// Unused is called from nowhere.
func Unused() {}

func helper() int { return 1 }

// Shape is satisfied implicitly by Square.
type Shape interface{ Area() float64 }

// Square is a Shape.
type Square struct{}

// Area implements Shape; nothing selects it by name.
func (Square) Area() float64 { return 1 }

// String is exempt: fmt calls it implicitly.
func (Square) String() string { return "square" }

// Grow is a method only tests call.
func (Square) Grow() {}
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOnly(t *testing.T) { OnlyTests(); Square{}.Grow() }
`,
		"cmd/tool/main.go": `package main

import "example.com/repo/internal/lib"

func main() { _ = lib.UsedByCmd() }
`,
		"bench/go.mod": "module example.com/repo/bench\n\nrequire example.com/repo v0.0.0\n\nreplace example.com/repo => ../\n",
		"bench/main.go": `package main

import rl "example.com/repo/internal/lib"

func main() { rl.UsedBySibling() }
`,
	})
	code, out, _ := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q", code, out)
	}
	for _, want := range []string{
		"exported function lib.OnlyTests has no non-test caller",
		"exported function lib.Unused has no non-test caller",
		"exported method lib.Square.Grow has no non-test caller",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q; got:\n%s", want, out)
		}
	}
	for _, reject := range []string{"UsedByCmd", "UsedBySibling", "Area", "String", "helper"} {
		if strings.Contains(out, reject) {
			t.Errorf("stdout flags %s, which has a non-test caller or is exempt:\n%s", reject, out)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nonsense"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
