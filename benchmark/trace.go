package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a call boundary of the benchmark: the
// workload, a rep, a phase of the loop, a pass, a statement or a layer
// probe. Parent is the ID of the span that caused it (-1 for the root).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`

	tr *tracer
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a child of parent (nil parent: a root span).
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans), Parent: -1, Name: name, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	s.StartNS = time.Since(t.epoch).Nanoseconds()
	return s
}

func (s *span) end() {
	if s != nil {
		s.EndNS = time.Since(s.tr.epoch).Nanoseconds()
	}
}

func (s *span) count(name string, v float64) {
	if s == nil {
		return
	}
	if s.Counters == nil {
		s.Counters = make(map[string]float64)
	}
	s.Counters[name] += v
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readTrace(path string) ([]*span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []*span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}

// checkSpans verifies the trace is a forest in which every parent resolves
// and no span's children outlast it in total.
func checkSpans(spans []*span) error {
	children := make([]int64, len(spans))
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d %s: parent %d does not resolve", s.ID, s.Name, s.Parent)
		}
		children[s.Parent] += s.EndNS - s.StartNS
	}
	for i, s := range spans {
		if children[i] > s.EndNS-s.StartNS {
			return fmt.Errorf("span %d %s: children take %d ns of its %d ns", s.ID, s.Name, children[i], s.EndNS-s.StartNS)
		}
	}
	return nil
}

// spanKind strips the instance from a span name: "stmt[Q3]" -> "stmt".
func spanKind(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 && !strings.HasPrefix(name, "probe[") {
		return name[:i]
	}
	return name
}

// reportTrace prints the self-time table by span kind (a span's self time is
// its duration minus its children's) and the five slowest statements of the
// loop (the heap probe's statements are heap-stmt spans and stay out).
func reportTrace(w io.Writer, spans []*span) {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	type row struct {
		kind        string
		n           int
		self, total int64
	}
	byKind := make(map[string]*row)
	stmts := make(map[string]*row)
	for i, s := range spans {
		k := spanKind(s.Name)
		r := byKind[k]
		if r == nil {
			r = &row{kind: k}
			byKind[k] = r
		}
		r.n++
		r.self += self[i]
		r.total += s.EndNS - s.StartNS
		if k == "stmt" {
			q := stmts[s.Name]
			if q == nil {
				q = &row{kind: s.Name}
				stmts[s.Name] = q
			}
			q.n++
			q.total += s.EndNS - s.StartNS
		}
	}
	sorted := func(m map[string]*row, key func(*row) int64) []*row {
		rows := make([]*row, 0, len(m))
		for _, r := range m {
			rows = append(rows, r)
		}
		sort.Slice(rows, func(i, j int) bool {
			if key(rows[i]) != key(rows[j]) {
				return key(rows[i]) > key(rows[j])
			}
			return rows[i].kind < rows[j].kind
		})
		return rows
	}
	fmt.Fprintf(w, "  %-34s %6s %12s %12s\n", "span", "n", "self ms", "total ms")
	for _, r := range sorted(byKind, func(r *row) int64 { return r.self }) {
		fmt.Fprintf(w, "  %-34s %6d %12.2f %12.2f\n", r.kind, r.n, float64(r.self)/1e6, float64(r.total)/1e6)
	}
	fmt.Fprintf(w, "  slowest statements (all passes):\n")
	for i, r := range sorted(stmts, func(r *row) int64 { return r.total }) {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "    %-32s %6d %12.2f ms\n", r.kind, r.n, float64(r.total)/1e6)
	}
}
