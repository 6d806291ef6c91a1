package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runCLI invokes the campaign CLI in-process, failing the test on a
// non-zero exit.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf strings.Builder
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("campaign %s: exit %d: %s", strings.Join(args, " "), code, errBuf.String())
	}
	return out.String()
}

// runMini executes the mini campaign through the CLI at the given
// worker count and returns the ledger bytes and the analyze report.
func runMini(t *testing.T, jobs int) ([]byte, string) {
	t.Helper()
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger,
		"-quick", "-jobs", strconv.Itoa(jobs))
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	return data, runCLI(t, "analyze", "-ledger", ledger)
}

// TestCrossShardDeterminism is the end-to-end determinism gate: same
// spec and seeds at -jobs 1, 4, and 8 must produce a byte-identical
// ledger and a byte-identical analyze report.
func TestCrossShardDeterminism(t *testing.T) {
	baseLedger, baseReport := runMini(t, 1)
	for _, jobs := range []int{4, 8} {
		ledger, report := runMini(t, jobs)
		if !bytes.Equal(baseLedger, ledger) {
			t.Errorf("ledger differs between -jobs 1 and -jobs %d", jobs)
		}
		if baseReport != report {
			t.Errorf("analyze report differs between -jobs 1 and -jobs %d", jobs)
		}
	}
}

// TestRunAppendsToExistingLedger proves append-only semantics: a
// second run lands after the first, and analyze rejects the duplicate
// cells rather than silently double-counting.
func TestRunAppendsToExistingLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "2")
	first, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "2")
	both, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(both, append(append([]byte{}, first...), first...)) {
		t.Fatal("second run did not append the same records after the first")
	}
	var out, errBuf strings.Builder
	if code := run([]string{"analyze", "-ledger", ledger}, &out, &errBuf); code == 0 {
		t.Fatal("analyze must reject duplicate cells")
	} else if !strings.Contains(errBuf.String(), "duplicate") {
		t.Fatalf("analyze error %q does not mention duplicate cells", errBuf.String())
	}
}

// TestRunRefusesCorruptLedger: an unreadable existing ledger must stop
// the run before any session executes.
func TestRunRefusesCorruptLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(ledger, []byte(`{"schema":1`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf strings.Builder
	if code := run([]string{"run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick"}, &out, &errBuf); code != exitCorrupt {
		t.Fatalf("run on a corrupt ledger: exit %d, want %d", code, exitCorrupt)
	}
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"schema":1` {
		t.Fatal("refused run still modified the ledger")
	}
}

func TestCLIUsageAndErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{nil, exitUsage},
		{[]string{"bogus"}, exitUsage},
		{[]string{"run"}, exitUsage},
		{[]string{"analyze"}, exitUsage},
		{[]string{"repair"}, exitUsage},
		{[]string{"resume"}, exitUsage},
		{[]string{"run", "-spec", "testdata/mini.json"}, exitUsage},
		{[]string{"analyze", "-ledger", "testdata/does-not-exist.jsonl"}, exitUsage},
		{[]string{"analyze", "-ledger", "x.jsonl", "-emit-spec", "y.json"}, exitUsage},
		{[]string{"help"}, 0},
	}
	for _, tc := range cases {
		var out, errBuf strings.Builder
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("campaign %v: exit %d, want %d (stderr: %s)", tc.args, code, tc.code, errBuf.String())
		}
	}
}

// TestRunProfileFlags: `campaign run -cpuprofile -memprofile` writes
// non-empty pprof files and a ledger byte-identical to an unprofiled
// run's.
func TestRunProfileFlags(t *testing.T) {
	plain, _ := runMini(t, 2)
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "2",
		"-cpuprofile", cpuPath, "-memprofile", memPath)
	profiled, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, profiled) {
		t.Fatalf("profiling changed the ledger")
	}
	for _, p := range []string{cpuPath, memPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (%v)", p, err)
		}
	}
}
