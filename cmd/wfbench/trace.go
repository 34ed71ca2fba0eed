package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent 0 is
// the root; rid ties the spans of one request or operation together
// (-1: none); lane is the client goroutine that made the call.
type span struct {
	id, parent int
	name       string
	rid, lane  int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: begin returns 0 and end does nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, rid, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name,
		rid: rid, lane: lane, start: now, end: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// snapshot returns the recorded spans; open spans end now.
func (t *tracer) snapshot() []span {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].end < 0 {
			out[i].end = now
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (children may overlap one another, so their union
// is subtracted), indexed like spans.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		covered := time.Duration(0)
		lo, hi := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			cl, ch := max(c.start, s.start), min(c.end, s.end)
			if ch <= cl {
				continue
			}
			if cl > hi {
				covered += hi - lo
				lo, hi = cl, ch
			} else {
				hi = max(hi, ch)
			}
		}
		covered += hi - lo
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerOf names a span's layer: the part of its name before the first
// dot ("portfolio.Run" → "portfolio").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTable lists self time and call count per layer and per span
// name, largest first.
func selfTable(spans []span) []string {
	self := selfTimes(spans)
	type row struct {
		key   string
		self  time.Duration
		calls int
	}
	group := func(key func(span) string) []row {
		idx := map[string]int{}
		var rows []row
		for i, s := range spans {
			k := key(s)
			j, ok := idx[k]
			if !ok {
				j = len(rows)
				idx[k] = j
				rows = append(rows, row{key: k})
			}
			rows[j].self += self[i]
			rows[j].calls++
		}
		sort.SliceStable(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
		return rows
	}
	var out []string
	for _, g := range []struct {
		title string
		key   func(span) string
	}{
		{"layer", func(s span) string { return layerOf(s.name) }},
		{"span", func(s span) string { return s.name }},
	} {
		out = append(out, fmt.Sprintf("%-28s %12s %8s", g.title, "self_s", "calls"))
		for _, r := range group(g.key) {
			out = append(out, fmt.Sprintf("%-28s %12.6f %8d", r.key, r.self.Seconds(), r.calls))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func writeChromeTrace(path string, spans []span) error {
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans))}
	for _, s := range spans {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent, "rid": s.rid},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(&tr); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
