package core

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/carry"
	"repro/internal/metrics"
	"repro/internal/patterns"
)

// ApproxAdder is the equivalent modified adder of the paper's Fig. 6: it
// imitates a VOS-afflicted hardware adder at functional speed. For each
// operand pair it (1) extracts the theoretical maximal carry chain, (2)
// draws the realized chain length Cmax from the trained probability table,
// and (3) computes the sum with carries truncated at Cmax.
//
// ApproxAdder itself satisfies HardwareAdder, so models can be stacked,
// compared, or re-characterized like hardware.
type ApproxAdder struct {
	model *Model
	pcg   rand.PCG
	rng   *rand.Rand
	// cdf is the table compiled for sampling: column l's running sums
	// start at cdfColumn(l).
	cdf  []float64
	mask uint64 // operand mask of the model width
}

// approxStream is the PCG stream constant of every ApproxAdder.
const approxStream = 0xa99feed

// NewApproxAdder returns a sampling adder driven by the model with a
// deterministic seed.
func NewApproxAdder(m *Model, seed uint64) (*ApproxAdder, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := &ApproxAdder{
		model: m,
		pcg:   *rand.NewPCG(seed, approxStream),
		cdf:   m.Table.compileCDF(),
		mask:  uint64(1)<<uint(m.Width) - 1,
	}
	a.rng = rand.New(&a.pcg)
	return a, nil
}

// Reseed restarts the adder's draws exactly where NewApproxAdder(model,
// seed) would start them, keeping the compiled table — the cheap way to
// run many independently seeded replays of one model.
func (a *ApproxAdder) Reseed(seed uint64) { a.pcg.Seed(seed, approxStream) }

// Width implements HardwareAdder.
func (a *ApproxAdder) Width() int { return a.model.Width }

// Model returns the underlying model.
func (a *ApproxAdder) Model() *Model { return a.model }

// Add implements HardwareAdder: one approximate addition with a freshly
// sampled carry limit. Every call draws exactly one uniform from the
// adder's stream.
func (a *ApproxAdder) Add(in1, in2 uint64) uint64 {
	g, p := in1&in2&a.mask, (in1^in2)&a.mask
	cth := carry.LongestChain(g, p)
	col := a.cdf[cdfColumn(cth):cdfColumn(cth+1)]
	cmax := drawCmax(col, a.rng.Float64())
	if cmax >= cth {
		// No chain is longer than cth, so nothing is truncated.
		return carry.ExactAdd(in1, in2, a.model.Width)
	}
	return p ^ carry.LimitedCarries(g, p, cmax)
}

// AddWithC performs the modified addition with an explicit carry limit,
// bypassing the table (step 3 of the paper's usage recipe, exposed for
// analysis).
func (a *ApproxAdder) AddWithC(in1, in2 uint64, cmax int) uint64 {
	return carry.LimitedAdd(in1, in2, a.model.Width, cmax)
}

// ExactAdder is the golden reference in HardwareAdder form.
type ExactAdder struct{ W int }

// Width implements HardwareAdder.
func (e ExactAdder) Width() int { return e.W }

// Add implements HardwareAdder.
func (e ExactAdder) Add(a, b uint64) uint64 { return carry.ExactAdd(a, b, e.W) }

// Evaluation quantifies how well a model imitates its hardware on a test
// stream — the quantities behind Fig. 7.
type Evaluation struct {
	// SNRdB is the signal-to-noise ratio of the model outputs versus the
	// hardware outputs (hardware as signal), Fig. 7a's y-axis.
	SNRdB float64
	// NormalizedHamming is the mean per-bit disagreement, Fig. 7b's
	// y-axis.
	NormalizedHamming float64
	// MSE is the mean squared model-vs-hardware error.
	MSE float64
	// BERModel / BERHardware compare both against the exact sum: a good
	// model reproduces not just the outputs but the error *rate*.
	BERModel    float64
	BERHardware float64
	// Patterns is the evaluation stream length.
	Patterns int
}

// Evaluate runs n fresh pairs through both the hardware oracle and the
// model and reports the estimation-error statistics.
func Evaluate(hw HardwareAdder, model *ApproxAdder, gen patterns.Generator, n int) (*Evaluation, error) {
	if hw.Width() != model.Width() {
		return nil, fmt.Errorf("core: width mismatch %d vs %d", hw.Width(), model.Width())
	}
	if gen.Width() != hw.Width() {
		return nil, fmt.Errorf("core: generator width %d != %d", gen.Width(), hw.Width())
	}
	outW := hw.Width() + 1
	vsHW := metrics.NewErrorAccumulator(outW)
	hwVsExact := metrics.NewErrorAccumulator(outW)
	mdlVsExact := metrics.NewErrorAccumulator(outW)
	for i := 0; i < n; i++ {
		a, b := gen.Next()
		ref := hw.Add(a, b)
		got := model.Add(a, b)
		exact := carry.ExactAdd(a, b, hw.Width())
		vsHW.Add(ref, got)
		hwVsExact.Add(exact, ref)
		mdlVsExact.Add(exact, got)
	}
	return &Evaluation{
		SNRdB:             vsHW.SNR(),
		NormalizedHamming: vsHW.NormalizedHamming(),
		MSE:               vsHW.MSE(),
		BERModel:          mdlVsExact.BER(),
		BERHardware:       hwVsExact.BER(),
		Patterns:          n,
	}, nil
}
