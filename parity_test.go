// Golden parity harness: the dense-state simulation core must reproduce
// the pre-refactor event-driven core bit for bit. The committed testdata
// was generated by the map+heap implementation; every later rewrite of the
// netlist→sim→charz hot path has to match it exactly — same ErrorStats,
// same energy bits, same late fractions — for the same seed and config.
//
// Regenerate (only when simulation semantics are *intentionally* changed,
// together with an engine cache schema bump):
//
//	go test -run TestGoldenParity -update-parity .
//
// The Monte Carlo golden (TestMCGolden) pins the model-replay path the
// same way: every /v1/mc point of a fixed seed, byte for byte. Regenerate
// it only when Monte Carlo semantics are intentionally changed:
//
//	go test -run TestMCGolden -update-mc .
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/charz"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/vos"
)

var (
	updateParity = flag.Bool("update-parity", false, "rewrite the golden parity testdata")
	updateMC     = flag.Bool("update-mc", false, "rewrite the Monte Carlo golden testdata")
)

// parityTriad is the exact per-triad outcome. Float64 fields are stored as
// IEEE-754 bit patterns so "byte-identical" means byte-identical: no
// formatting round-trip can hide an ulp of drift.
type parityTriad struct {
	Label        string             `json:"label"`
	Stats        metrics.ErrorStats `json:"stats"`
	EnergyBits   uint64             `json:"energyBits"`
	LateFracBits uint64             `json:"lateFracBits"`
}

type parityCase struct {
	Name   string        `json:"name"`
	Triads []parityTriad `json:"triads"`
}

// parityConfigs are the sweeps pinned by the golden: the two-vector gate
// protocol, the free-running streaming protocol, and the switch-level RC
// backend, at reduced pattern counts.
func parityConfigs() []struct {
	name string
	cfg  charz.Config
} {
	return []struct {
		name string
		cfg  charz.Config
	}{
		{"gate-rca8", charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: 300, Seed: 7}},
		{"gate-stream-bka8", charz.Config{Arch: synth.ArchBKA, Width: 8, Patterns: 250, Seed: 3, Streaming: true}},
		{"rc-rca4", charz.Config{Arch: synth.ArchRCA, Width: 4, Patterns: 60, Seed: 5, Backend: charz.BackendRC}},
	}
}

func runParityCase(t *testing.T, name string, cfg charz.Config) parityCase {
	t.Helper()
	res, err := charz.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pc := parityCase{Name: name}
	for _, tr := range res.Triads {
		pc.Triads = append(pc.Triads, parityTriad{
			Label:        tr.Triad.Label(),
			Stats:        tr.Acc.Snapshot(),
			EnergyBits:   math.Float64bits(tr.EnergyPerOpFJ),
			LateFracBits: math.Float64bits(tr.LateFraction),
		})
	}
	return pc
}

func TestGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("golden parity sweep is not -short")
	}
	path := filepath.Join("testdata", "parity_golden.json")
	var got []parityCase
	for _, c := range parityConfigs() {
		got = append(got, runParityCase(t, c.name, c.cfg))
	}
	if *updateParity {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-parity): %v", err)
	}
	var want []parityCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("case count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("case %d: name %q want %q", i, got[i].Name, want[i].Name)
		}
		if len(got[i].Triads) != len(want[i].Triads) {
			t.Fatalf("%s: triad count %d want %d", want[i].Name, len(got[i].Triads), len(want[i].Triads))
		}
		for j := range want[i].Triads {
			g, w := got[i].Triads[j], want[i].Triads[j]
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s %s: parity break\n got: %s\nwant: %s",
					want[i].Name, w.Label, mustJSON(g), mustJSON(w))
			}
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}

// mcGoldenCase is one pinned Monte Carlo job: its points exactly as
// vos.MCResult carries them.
type mcGoldenCase struct {
	Name   string          `json:"name"`
	Points json.RawMessage `json:"points"`
}

// mcGoldenSpecs are the jobs pinned by the Monte Carlo golden: all four
// kernels at RCA16's deep-VOS cell (the mc_deep benchmark's triad), at a
// moderately erroneous RCA16 triad, and at a deep BKA16 triad, each at a
// small sample budget (4 reps of the 2048-sample kernels, 32 of kmeans).
func mcGoldenSpecs() []struct {
	name string
	spec *vos.MCSpec
} {
	spec := func(arch string, tr vos.Triad) *vos.MCSpec {
		return vos.NewMCSpec("fir", "blur", "sobel", "kmeans").Arch(arch).Triads(tr).Samples(8192).Seed(11)
	}
	return []struct {
		name string
		spec *vos.MCSpec
	}{
		{"rca16-deep", spec("RCA", vos.Triad{Tclk: 0.212, Vdd: 0.7, Vbb: 0})},
		{"rca16-moderate", spec("RCA", vos.Triad{Tclk: 0.3, Vdd: 0.8, Vbb: 0})},
		{"bka16-deep", spec("BKA", vos.Triad{Tclk: 0.15, Vdd: 0.7, Vbb: 0})},
	}
}

// TestMCGolden runs the pinned Monte Carlo jobs and compares the
// canonical JSON of their points against testdata/mc_golden.json. JSON
// floats print the shortest round-tripping decimal, so equal bytes mean
// equal float bits: any change to the carry kernels, the table sampler,
// the RNG stream order or the application kernels shows up here.
func TestMCGolden(t *testing.T) {
	cli, err := vos.NewLocal(vos.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var got []mcGoldenCase
	for _, c := range mcGoldenSpecs() {
		res, err := cli.RunMC(context.Background(), c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pts, err := json.Marshal(res.Points)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, mcGoldenCase{Name: c.name, Points: pts})
	}
	path := filepath.Join("testdata", "mc_golden.json")
	if *updateMC {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-mc): %v", err)
	}
	var want []mcGoldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("case count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		var w bytes.Buffer
		if err := json.Compact(&w, want[i].Points); err != nil {
			t.Fatal(err)
		}
		if got[i].Name != want[i].Name || !bytes.Equal(got[i].Points, w.Bytes()) {
			t.Errorf("%s: Monte Carlo parity break\n got: %s\nwant: %s", want[i].Name, got[i].Points, w.Bytes())
		}
	}
}
