package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. ID groups the spans of one
// session or one cell (or one experiment); Parent indexes the enclosing
// span in the tracer's slice, -1 at top level. Times are nanoseconds
// since the tracer's origin.
type span struct {
	Name       string
	ID         int
	Parent     int
	Start, End int64
}

// tracer keeps spans in memory; they are written out only after the
// measured replay ends. A nil *tracer records nothing, so the untraced
// replay runs the same code with every begin/end a no-op.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
}

// layerTimes is the traced split: per span name, the number of spans,
// their summed duration and their summed self time (duration minus the
// part covered by child spans), all in nanoseconds.
type layerTimes struct {
	Count map[string]int
	Total map[string]int64
	Self  map[string]int64
}

// split computes the traced split. Children never overlap each other
// (the replay is sequential), so a span's self time is its duration
// minus the sum of its children's durations.
func (t *tracer) split() layerTimes {
	lt := layerTimes{Count: map[string]int{}, Total: map[string]int64{}, Self: map[string]int64{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		lt.Count[s.Name]++
		lt.Total[s.Name] += d
		lt.Self[s.Name] += d - child[i]
	}
	return lt
}

// selfSum returns the summed self time of every span.
func (lt layerTimes) selfSum() int64 {
	var n int64
	for _, v := range lt.Self {
		n += v
	}
	return n
}

// write stores the spans as CSV (name,id,parent,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.Name, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
