package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), errRun
}

func writeWF(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "w.wf")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const schedFile = `
task a 30 3 3
task b 50 5 5
task c 20 2 2
edge a b
edge b c
order a b c
ckpt b
`

func TestEvaluateAnalyticAndMC(t *testing.T) {
	p := writeWF(t, schedFile)
	out, err := capture(t, func() error { return run(p, 1e-3, 1, 2000, 2, 7, true) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"analytic expected makespan", "Monte-Carlo", "1 checkpointed"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestEvaluateAnalyticOnly(t *testing.T) {
	p := writeWF(t, schedFile)
	out, err := capture(t, func() error { return run(p, 1e-3, 0, 0, 0, 7, false) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Monte-Carlo") {
		t.Fatal("MC section printed with mc=0")
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := capture(t, func() error { return run("", 1e-3, 0, 0, 0, 1, false) }); err == nil {
		t.Fatal("missing -in accepted")
	}
	if _, err := capture(t, func() error { return run("/no/such.wf", 1e-3, 0, 0, 0, 1, false) }); err == nil {
		t.Fatal("missing file accepted")
	}
	noOrder := writeWF(t, "task a 1\ntask b 2\nedge a b\n")
	if _, err := capture(t, func() error { return run(noOrder, 1e-3, 0, 0, 0, 1, false) }); err == nil {
		t.Fatal("schedule without order accepted")
	}
	badOrder := writeWF(t, "task a 1\ntask b 2\nedge a b\norder b a\n")
	if _, err := capture(t, func() error { return run(badOrder, 1e-3, 0, 0, 0, 1, false) }); err == nil {
		t.Fatal("invalid order accepted")
	}
	p := writeWF(t, schedFile)
	if _, err := capture(t, func() error { return run(p, -1, 0, 0, 0, 1, false) }); err == nil {
		t.Fatal("negative λ accepted")
	}
	for name, content := range map[string]string{
		"cyclic": "task a 1 1 1\ntask b 2 1 1\nedge a b\nedge b a\n",
		"nan":    "task a NaN 1 1\ntask b 2 1 1\nedge a b\norder a b\n",
		"inf":    "task a Inf 1 1\ntask b 2 1 1\nedge a b\norder a b\n",
	} {
		p := writeWF(t, content)
		if _, err := capture(t, func() error { return run(p, 1e-3, 0, 0, 0, 1, false) }); err == nil {
			t.Fatalf("%s workflow accepted", name)
		}
	}
}

// TestEvaluateFlagValidation pins the up-front flag checks: negative
// -mc and -workers must be rejected, not silently ignored.
func TestEvaluateFlagValidation(t *testing.T) {
	p := writeWF(t, schedFile)
	if _, err := capture(t, func() error { return run(p, 1e-3, 0, -5, 0, 1, false) }); err == nil {
		t.Fatal("negative -mc accepted")
	}
	if _, err := capture(t, func() error { return run(p, 1e-3, 0, 0, -3, 1, false) }); err == nil {
		t.Fatal("negative -workers accepted")
	}
}
