package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkSimStepRCA8-8   	    2000	      2117 ns/op	     162 B/op	       3 allocs/op
BenchmarkSimStepDenseRCA8 	    2000	      1673 ns/op	       4 B/op	       0 allocs/op
BenchmarkFig8/RCA8        	       1	 114120000 ns/op	       199.8 fJ/op@nominal	        43.00 sim-points	 2943880 B/op	   10152 allocs/op
--- BENCH: BenchmarkFig8/RCA8
    bench_test.go:225: Fig 8 8-bit RCA:
PASS
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	rs := Parse(sample)
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3", len(rs))
	}
	if rs[0].Name != "SimStepRCA8" || rs[0].Iters != 2000 || rs[0].NsOp != 2117 {
		t.Fatalf("first result: %+v", rs[0])
	}
	if rs[0].AllocsOp == nil || *rs[0].AllocsOp != 3 {
		t.Fatalf("allocs/op: %+v", rs[0].AllocsOp)
	}
	if rs[2].Name != "Fig8/RCA8" {
		t.Fatalf("sub-benchmark name: %q", rs[2].Name)
	}
	if rs[2].Metrics["fJ/op@nominal"] != 199.8 || rs[2].Metrics["sim-points"] != 43 {
		t.Fatalf("custom metrics: %+v", rs[2].Metrics)
	}
	if rs[2].BOp == nil || *rs[2].BOp != 2943880 {
		t.Fatalf("B/op: %+v", rs[2].BOp)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	if rs := Parse("BenchmarkBroken\tnot-a-number 12 ns/op\nrandom text\n"); len(rs) != 0 {
		t.Fatalf("parsed garbage: %+v", rs)
	}
}

// writeBaseline commits a synthetic baseline file for the diff-gate tests.
func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	data, err := json.Marshal(File{Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiffGate(t *testing.T) {
	base := writeBaseline(t, []Result{
		{Name: "SimStepDenseRCA8", NsOp: 1000},
		{Name: "Fig8/RCA8", NsOp: 100e6},
		{Name: "EvaluateBatch", NsOp: 500}, // outside the filter
	})
	filter := "^(SimStep|Fig8)"

	// Within threshold, plus an ungated bench regressing wildly, plus a
	// brand-new gated bench: all pass.
	fresh := []Result{
		{Name: "SimStepDenseRCA8", NsOp: 1100},
		{Name: "Fig8/RCA8", NsOp: 90e6},
		{Name: "EvaluateBatch", NsOp: 5000},
		{Name: "SimStepWordRCA8", NsOp: 7000},
	}
	var report bytes.Buffer
	if _, err := Diff(&report, base, fresh, filter, 0.20); err != nil {
		t.Fatalf("within-threshold diff failed: %v", err)
	}
	if out := report.String(); !strings.Contains(out, "not gated") || !strings.Contains(out, "no gated regressions") {
		t.Fatalf("diff report:\n%s", out)
	}

	// A gated benchmark beyond the threshold fails, and its name comes
	// back in the profilable-regression list.
	fresh[0].NsOp = 1300
	report.Reset()
	regressed, err := Diff(&report, base, fresh, filter, 0.20)
	if err == nil || !strings.Contains(err.Error(), "SimStepDenseRCA8") {
		t.Fatalf("regression not flagged: %v", err)
	}
	if len(regressed) != 1 || regressed[0] != "SimStepDenseRCA8" {
		t.Fatalf("profilable regressions: %v", regressed)
	}
	if !strings.Contains(report.String(), "REGRESSED") {
		t.Fatalf("diff report:\n%s", report.String())
	}

	// A gated baseline benchmark missing from the fresh run fails too,
	// but cannot be profiled: it must not appear in the returned list.
	fresh[0] = Result{Name: "Other", NsOp: 1}
	regressed, err = Diff(io.Discard, base, fresh, filter, 0.20)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing benchmark not flagged: %v", err)
	}
	if len(regressed) != 0 {
		t.Fatalf("missing benchmark reported as profilable: %v", regressed)
	}
}

// TestDiffAllocGate: allocs/op is gated at +10% independently of
// ns/op, and only where both runs recorded it.
func TestDiffAllocGate(t *testing.T) {
	allocs := func(v float64) *float64 { return &v }
	base := writeBaseline(t, []Result{
		{Name: "SimStepDenseRCA8", NsOp: 1000, AllocsOp: allocs(100)},
		{Name: "Fig8/RCA8", NsOp: 100e6, AllocsOp: allocs(0)},
		{Name: "SimStepNoMem", NsOp: 1000},
	})
	filter := "^(SimStep|Fig8)"

	fresh := []Result{
		{Name: "SimStepDenseRCA8", NsOp: 900, AllocsOp: allocs(110)},
		{Name: "Fig8/RCA8", NsOp: 100e6, AllocsOp: allocs(0)},
		{Name: "SimStepNoMem", NsOp: 1000, AllocsOp: allocs(50)},
	}
	if _, err := Diff(io.Discard, base, fresh, filter, 0.20); err != nil {
		t.Fatalf("+10%% allocs/op failed the gate: %v", err)
	}

	// One allocation past +10% fails, even with ns/op improving, and
	// the benchmark is offered for profiling.
	fresh[0].AllocsOp = allocs(111)
	var report bytes.Buffer
	regressed, err := Diff(&report, base, fresh, filter, 0.20)
	if err == nil || !strings.Contains(err.Error(), "SimStepDenseRCA8 (allocs/op)") {
		t.Fatalf("allocs/op regression not flagged: %v\n%s", err, report.String())
	}
	if len(regressed) != 1 || regressed[0] != "SimStepDenseRCA8" {
		t.Fatalf("profilable regressions: %v", regressed)
	}

	// A zero-allocation baseline fails on the first allocation.
	fresh[0].AllocsOp = allocs(100)
	fresh[1].AllocsOp = allocs(1)
	if _, err := Diff(io.Discard, base, fresh, filter, 0.20); err == nil || !strings.Contains(err.Error(), "Fig8/RCA8 (allocs/op)") {
		t.Fatalf("0 -> 1 allocs/op not flagged: %v", err)
	}

	// A benchmark failing both gates is profiled once.
	fresh[1] = Result{Name: "Fig8/RCA8", NsOp: 200e6, AllocsOp: allocs(5)}
	regressed, err = Diff(io.Discard, base, fresh, filter, 0.20)
	if err == nil || len(regressed) != 1 || regressed[0] != "Fig8/RCA8" {
		t.Fatalf("double regression: %v, profilable %v", err, regressed)
	}
}

func TestBestSamples(t *testing.T) {
	rs := BestSamples([]Result{
		{Name: "A", NsOp: 300},
		{Name: "B", NsOp: 10},
		{Name: "A", NsOp: 100},
		{Name: "A", NsOp: 200},
	})
	if len(rs) != 2 {
		t.Fatalf("collapsed to %d results, want 2", len(rs))
	}
	if rs[0].Name != "A" || rs[0].NsOp != 100 {
		t.Fatalf("best A sample: %+v", rs[0])
	}
	if rs[1].Name != "B" || rs[1].NsOp != 10 {
		t.Fatalf("order not preserved: %+v", rs[1])
	}
}

func TestDiffBadInputs(t *testing.T) {
	if _, err := Diff(io.Discard, "does-not-exist.json", nil, ".", 0.2); err == nil {
		t.Fatal("missing baseline accepted")
	}
	base := writeBaseline(t, nil)
	if _, err := Diff(io.Discard, base, nil, "(", 0.2); err == nil {
		t.Fatal("bad filter regex accepted")
	}
}
