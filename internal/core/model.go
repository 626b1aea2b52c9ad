// Package core implements the paper's primary contribution (Section IV):
// a statistical, functional-level model of arithmetic operators subjected
// to voltage over-scaling.
//
// A VOS-afflicted adder fails on its longest combinational paths first —
// the carry chains. The model therefore reduces an operator at a given
// operating triad to a single conditional probability table
//
//	P(Cmax = k | Cthmax = l)
//
// where Cthmax is the theoretical maximal carry chain of the operand pair
// and Cmax is the carry-chain length the faulty hardware effectively
// realized. To imitate the hardware, the equivalent "modified adder" draws
// Cmax from the table's column for the operands' Cthmax and computes the
// sum with carries truncated after Cmax positions (carry.LimitedAdd).
//
// The table is trained offline (Algorithm 1) against hardware outputs from
// the timing simulator, minimizing a configurable distance metric — MSE,
// Hamming, or significance-weighted Hamming — between hardware and model
// outputs. Training reduces the 2^2N input space to an (N+1)²/2 table, the
// scalability point the paper makes over exhaustive SPICE characterization.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"repro/internal/metrics"
)

// Metric selects the distance the trainer minimizes and the evaluator
// reports (the three calibration metrics of Section IV).
type Metric uint8

// The paper's three accuracy metrics.
const (
	MetricMSE Metric = iota
	MetricHamming
	MetricWeightedHamming
	numMetrics
)

var metricNames = [...]string{
	MetricMSE:             "MSE",
	MetricHamming:         "Hamming",
	MetricWeightedHamming: "WeightedHamming",
}

// String names the metric.
func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return fmt.Sprintf("Metric(%d)", uint8(m))
}

// Metrics lists all supported metrics in the order of the paper's Fig. 7
// legends.
func Metrics() []Metric {
	return []Metric{MetricMSE, MetricHamming, MetricWeightedHamming}
}

// Distance returns the metric's distance between a reference word and a
// candidate word of the given width (width counts the full output
// including carry-out).
func (m Metric) Distance(ref, got uint64, width int) float64 {
	switch m {
	case MetricMSE:
		return metrics.SquaredError(ref, got)
	case MetricHamming:
		return float64(metrics.Hamming(ref, got, width))
	case MetricWeightedHamming:
		return metrics.WeightedHamming(ref, got, width)
	default:
		panic(fmt.Sprintf("core: invalid metric %d", m))
	}
}

// ProbTable is the carry-propagation probability table of Table I:
// P[k][l] = P(Cmax = k | Cthmax = l) for k, l in [0, N]. Entries with
// k > l are structurally zero (the model never propagates farther than the
// operands allow).
type ProbTable struct {
	N int
	P [][]float64
}

// NewProbTable returns a zero table for an N-bit adder.
func NewProbTable(n int) *ProbTable {
	t := &ProbTable{N: n, P: make([][]float64, n+1)}
	for k := range t.P {
		t.P[k] = make([]float64, n+1)
	}
	return t
}

// Identity returns the table of a perfect adder: P(Cmax = l | Cthmax = l)
// = 1 for every l.
func Identity(n int) *ProbTable {
	t := NewProbTable(n)
	for l := 0; l <= n; l++ {
		t.P[l][l] = 1
	}
	return t
}

// Validate checks the structural invariants: dimensions, non-negative
// entries, zero above-diagonal mass, and column sums of 1 (within eps).
func (t *ProbTable) Validate() error {
	if t.N < 1 || len(t.P) != t.N+1 {
		return fmt.Errorf("core: table dimensions inconsistent (N=%d, rows=%d)", t.N, len(t.P))
	}
	for k := range t.P {
		if len(t.P[k]) != t.N+1 {
			return fmt.Errorf("core: row %d has %d columns", k, len(t.P[k]))
		}
	}
	for l := 0; l <= t.N; l++ {
		var sum float64
		for k := 0; k <= t.N; k++ {
			v := t.P[k][l]
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("core: P(%d|%d) = %v invalid", k, l, v)
			}
			if k > l && v != 0 {
				return fmt.Errorf("core: P(%d|%d) = %v above diagonal", k, l, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("core: column %d sums to %v", l, sum)
		}
	}
	return nil
}

// Sample draws Cmax from the column for Cthmax = l (clamped to [0, N]).
// It scans the same running sums ApproxAdder compiles once per table, so
// both draw identical values from identical uniforms.
func (t *ProbTable) Sample(l int, rng *rand.Rand) int {
	l = min(max(l, 0), t.N)
	var buf [64]float64
	return drawCmax(t.appendCDF(buf[:0], l), rng.Float64())
}

// appendCDF appends the running sums of column l — P[0][l], P[0][l] +
// P[1][l], …, up to k = l — to dst, accumulated in k order.
func (t *ProbTable) appendCDF(dst []float64, l int) []float64 {
	var cum float64
	for k := 0; k <= l; k++ {
		cum += t.P[k][l]
		dst = append(dst, cum)
	}
	return dst
}

// compileCDF returns every column's running sums in one flat array:
// column l at cdfColumn(l).
func (t *ProbTable) compileCDF() []float64 {
	cdf := make([]float64, 0, cdfColumn(t.N+1))
	for l := 0; l <= t.N; l++ {
		cdf = t.appendCDF(cdf, l)
	}
	return cdf
}

// cdfColumn is the offset of column l in a compiled CDF (columns hold
// 1, 2, 3, … entries).
func cdfColumn(l int) int { return l * (l + 1) / 2 }

// drawCmax returns the first k with u < cdf[k], or the last index when
// rounding leaves the column's total at or below u.
func drawCmax(cdf []float64, u float64) int {
	for k, c := range cdf {
		if u < c {
			return k
		}
	}
	return len(cdf) - 1
}

// Mean returns E[Cmax | Cthmax = l].
func (t *ProbTable) Mean(l int) float64 {
	var m float64
	for k := 0; k <= t.N; k++ {
		m += float64(k) * t.P[k][l]
	}
	return m
}

// ExactnessProb returns P(Cmax = l | Cthmax = l), the probability that the
// modeled hardware fully propagates the operands' longest chain.
func (t *ProbTable) ExactnessProb(l int) float64 { return t.P[l][l] }

// String renders the table the way the paper's Table I does (columns are
// Cthmax, rows Cmax).
func (t *ProbTable) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cmax\\Cth |")
	for l := 0; l <= t.N; l++ {
		fmt.Fprintf(&sb, " %6d", l)
	}
	sb.WriteString("\n")
	for k := 0; k <= t.N; k++ {
		fmt.Fprintf(&sb, "%8d |", k)
		for l := 0; l <= t.N; l++ {
			fmt.Fprintf(&sb, " %6.3f", t.P[k][l])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ErrInsufficientData marks training sets that never exercised the model.
var ErrInsufficientData = errors.New("core: no training observations")
