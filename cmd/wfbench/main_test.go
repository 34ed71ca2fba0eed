package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// toySizes make every workload finish in well under a second.
var toySizes = sizes{
	mixN: []int{20, 40}, hitN: []int{20, 40}, mixMC: 50, mixDistinct: 40,
	scaleN:      40,
	figureSizes: []int{20, 30}, figureGrid: 8, figureMid: 30,
	reactiveN: 20, reactiveTrials: 32,
}

func toyParams() *params {
	return &params{seed: 1, budget: 50 * time.Millisecond, nproc: 2, size: toySizes}
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, wfbench has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, wfbench %q", i, w.Name, workloads[i].name)
		}
	}
	for _, traced := range []bool{false, true} {
		want := d.EndToEnd
		if traced {
			want = d.PerLayer
		}
		for _, w := range workloads {
			res, lines, err := measure(w, toyParams(), traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced,
					res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestTraceFileParses(t *testing.T) {
	dir := t.TempDir()
	w, err := findWorkload("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := measure(w, toyParams(), true, dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "wfbench-trace-serve-mix-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	spans := make([]span, len(tr.TraceEvents))
	for i, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %d: %+v", i, e)
		}
		spans[i] = span{id: e.Args["id"], parent: e.Args["parent"], name: e.Name,
			start: time.Duration(e.TS * 1e3), end: time.Duration((e.TS + e.Dur) * 1e3)}
	}
	for i, d := range selfTimes(spans) {
		// The file rounds to nanoseconds; allow that much.
		if d < -time.Microsecond {
			t.Errorf("span %s: self time %v < 0", spans[i].name, d)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "parent", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 30, end: 60},  // overlaps a
		{id: 4, parent: 1, name: "c", start: 90, end: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[0] != 100-50-10 {
		t.Errorf("parent self time %v, want 40", self[0])
	}
	if self[1] != 30 || self[2] != 30 || self[3] != 30 {
		t.Errorf("leaf self times %v", self[1:])
	}
}

// serve-mix's stream introduces every catalog entry once, in order, and
// repeats earlier entries for the other half of its requests.
func TestMixStreamHalfRepeats(t *testing.T) {
	const distinct = 500
	s := mixStream(rng.New(shapeSeed), distinct)
	if len(s) != 2*distinct {
		t.Fatalf("stream has %d requests, want %d", len(s), 2*distinct)
	}
	introduced := 0
	for i, e := range s {
		if e > introduced {
			t.Fatalf("request %d sends entry %d before entry %d", i, e, introduced)
		}
		if e == introduced {
			introduced++
		}
	}
	if introduced != distinct {
		t.Fatalf("stream introduces %d entries, want %d", introduced, distinct)
	}
}

// A stored body with one corrupted byte must turn every hit on it into
// a failed operation.
func TestCorruptedBodyCountsAsFailure(t *testing.T) {
	p := toyParams()
	jb, err := setupServeHit(p)
	if err != nil {
		t.Fatal(err)
	}
	j := jb.(*serveHit)
	defer j.close()
	bad := j.bodies[j.order[0]]
	bad[len(bad)/2] ^= 1
	p.section = &section{budget: p.budget}
	j.run(p)
	if p.section.failed == 0 || p.section.failed == p.section.attempted {
		t.Fatalf("failed %d of %d operations, want only those on the corrupted body",
			p.section.failed, p.section.attempted)
	}
}
