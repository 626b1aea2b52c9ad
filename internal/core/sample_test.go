package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/carry"
)

// sampleLinear is the reference draw: one uniform, then a running sum
// over column l in k order until it exceeds the uniform.
func sampleLinear(t *ProbTable, l int, rng *rand.Rand) int {
	if l < 0 {
		l = 0
	}
	if l > t.N {
		l = t.N
	}
	u := rng.Float64()
	var cum float64
	for k := 0; k <= l; k++ {
		cum += t.P[k][l]
		if u < cum {
			return k
		}
	}
	return l
}

// randomTable returns a valid n-bit table whose columns mix zero and
// non-zero entries with arbitrary (non-dyadic) weights.
func randomTable(n int, rng *rand.Rand) *ProbTable {
	t := NewProbTable(n)
	for l := 0; l <= n; l++ {
		var sum float64
		for k := 0; k <= l; k++ {
			if rng.IntN(3) > 0 || k == l {
				t.P[k][l] = rng.Float64()
				sum += t.P[k][l]
			}
		}
		for k := 0; k <= l; k++ {
			t.P[k][l] /= sum
		}
	}
	return t
}

// TestCompiledCDFMatchesLinearScan checks that the compiled per-column
// sums draw exactly what the running-sum scan draws from identically
// seeded streams, through both ProbTable.Sample and the adder's table.
func TestCompiledCDFMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(20)
		tab := randomTable(n, rng)
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}
		cdf := tab.compileCDF()
		seed := rng.Uint64()
		ref := rand.New(rand.NewPCG(seed, 1))
		viaSample := rand.New(rand.NewPCG(seed, 1))
		viaCDF := rand.New(rand.NewPCG(seed, 1))
		for i := 0; i < 500; i++ {
			l := rng.IntN(n+3) - 1 // includes the clamped -1 and n+1
			want := sampleLinear(tab, l, ref)
			if got := tab.Sample(l, viaSample); got != want {
				t.Fatalf("trial %d: Sample(%d) = %d, linear scan %d", trial, l, got, want)
			}
			c := min(max(l, 0), n)
			if got := drawCmax(cdf[cdfColumn(c):cdfColumn(c+1)], viaCDF.Float64()); got != want {
				t.Fatalf("trial %d: compiled draw at l=%d = %d, linear scan %d", trial, l, got, want)
			}
		}
	}
}

// TestDrawCmaxFallsBackToLast covers a column whose sums stop short of
// the uniform (rounding): the draw is the column's own Cthmax.
func TestDrawCmaxFallsBackToLast(t *testing.T) {
	if got := drawCmax([]float64{0.25, 0.5, 0.999999999}, 0.9999999995); got != 2 {
		t.Fatalf("drawCmax = %d, want 2", got)
	}
}

// TestApproxAddMatchesReference pins ApproxAdder.Add to the model's
// definition — Cthmax, one linear-scan draw, carry.LimitedAdd — on a
// truncating table, and checks that Reseed restarts the stream exactly
// where a fresh adder starts it.
func TestApproxAddMatchesReference(t *testing.T) {
	const width = 16
	rng := rand.New(rand.NewPCG(3, 3))
	m := &Model{Width: width, Metric: MetricMSE, Table: randomTable(width, rng)}
	reused, err := NewApproxAdder(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 0xfeed} {
		fresh, err := NewApproxAdder(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		reused.Reseed(seed)
		ref := rand.New(rand.NewPCG(seed, approxStream))
		ops := rand.New(rand.NewPCG(seed, 99))
		for i := 0; i < 20000; i++ {
			// Wide operands: Add must ignore the bits above width.
			a, b := ops.Uint64(), ops.Uint64()
			if i%4 == 0 {
				b = ^a ^ 1 // long propagate runs
			}
			cmax := sampleLinear(m.Table, carry.Cthmax(a, b, width), ref)
			want := carry.LimitedAdd(a, b, width, cmax)
			if got := fresh.Add(a, b); got != want {
				t.Fatalf("seed %d op %d: Add(%#x, %#x) = %#x, reference %#x", seed, i, a, b, got, want)
			}
			if got := reused.Add(a, b); got != want {
				t.Fatalf("seed %d op %d: reseeded Add(%#x, %#x) = %#x, reference %#x", seed, i, a, b, got, want)
			}
		}
	}
}
