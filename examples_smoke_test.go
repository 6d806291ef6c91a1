package latlab_test

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds and runs every example main, asserting on a
// fragment of its expected output — the examples are documentation and
// must keep working.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples compile+run; skipped in -short")
	}
	cases := []struct {
		path string
		args []string
		want string
	}{
		{"./examples/quickstart", nil, "mean latency"},
		{"./examples/notepad", nil, "Windows 95"},
		{"./examples/powerpoint", []string{"-persona", "nt40"}, "events with latency over one second"},
		{"./examples/wordstudy", nil, "typical keystroke latency"},
		{"./examples/thinkwait", nil, "wait%"},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.path, "./examples/"), func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", c.path}, c.args...)
			cmd := exec.Command("go", args...)
			start := time.Now()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed after %v: %v\n%s", c.path, time.Since(start), err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%s output missing %q:\n%s", c.path, c.want, out)
			}
		})
	}
}
