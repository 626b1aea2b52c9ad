package apps

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// This file defines the Monte Carlo kernel catalog: the application
// workloads the /v1/mc job type runs at scale on a modeled adder. A
// kernel processes a fixed number of input samples per "rep" (one
// self-contained run on one deterministic input instance); a million-
// sample job is just ceil(N/RepSize) reps, which is the unit the
// cluster shards. Every rep is pinned to an explicit seed — all input
// synthesis below goes through seeded PCG streams, never a shared or
// ambient rand source — so any rep can be recomputed bit-identically on
// any node.

// MCHistBins is the length of a rep's output-error histogram: bin 0
// counts exact outputs, bin i (i ≥ 1) counts outputs whose absolute
// error e has bit-length i, i.e. e ∈ [2^(i-1), 2^i). A Word-bit output
// can be off by at most 2^Word−1, so Word bins cover every magnitude.
const MCHistBins = Word + 1

// histBin returns the histogram bin of one absolute output error.
func histBin(absErr uint64) int { return bits.Len64(absErr) }

// MCRepResult is the outcome of one rep: the rep's quality metric (vs
// an exact-arithmetic run of the identical input), and the output-error
// census behind it.
type MCRepResult struct {
	// Metric is the rep's quality figure; its meaning is the kernel's
	// Metric name. SNR-family metrics are capped at core.SNRCap so
	// error-free reps stay finite.
	Metric float64
	// Outputs counts output elements compared; Errors counts those that
	// differed from the exact run.
	Outputs int64
	Errors  int64
	// Hist is the |error| magnitude histogram.
	Hist [MCHistBins]uint64
}

// MCKernel is one catalog entry.
type MCKernel struct {
	// Name identifies the kernel in MC requests ("fir", "blur", "sobel",
	// "kmeans").
	Name string
	// RepSize is the number of input samples one rep consumes: signal
	// taps for fir, pixels for the image kernels, points for kmeans.
	RepSize int
	// Metric names the per-rep quality measure: "snr" and "psnr" in dB
	// (higher is better), "rmse" in output units (lower is better).
	Metric string
}

// MCKernels is the catalog, in canonical order.
func MCKernels() []MCKernel {
	return []MCKernel{
		{Name: "fir", RepSize: 2048, Metric: "snr"},
		{Name: "blur", RepSize: 2048, Metric: "psnr"},
		{Name: "sobel", RepSize: 2048, Metric: "psnr"},
		{Name: "kmeans", RepSize: 256, Metric: "rmse"},
	}
}

// MCKernelByName looks a kernel up by name.
func MCKernelByName(name string) (MCKernel, bool) {
	for _, k := range MCKernels() {
		if k.Name == name {
			return k, true
		}
	}
	return MCKernel{}, false
}

// RunRep executes one rep: synthesize the rep's input from its seed,
// run the kernel once with exact arithmetic and once through ar, and
// census the deviation. The exact run makes the rep self-contained —
// shards need no reference data from the coordinator.
func (k MCKernel) RunRep(seed uint64, ar *Arith) (MCRepResult, error) {
	return k.Runner().Run(seed, ar)
}

// MCRunner runs reps of one kernel, reusing the rep's input and output
// buffers from one rep to the next, so a run of reps allocates nothing
// per rep on the fir, blur and sobel kernels. A runner is not safe for
// concurrent use: give each worker its own.
type MCRunner struct {
	k     MCKernel
	exact *Arith
	fir   FIR
	// fir buffers: input signal, exact and approximate outputs.
	x, refY, gotY []uint64
	// blur/sobel buffers: input scene, exact and approximate outputs.
	img, refImg, gotImg *Image
}

// Runner returns a fresh runner for the kernel.
func (k MCKernel) Runner() *MCRunner {
	exact, _ := NewArith(core.ExactAdder{W: Word}) // Word wide: cannot fail
	return &MCRunner{k: k, exact: exact, fir: BinomialFIR()}
}

// Run executes one rep exactly as RunRep does.
func (r *MCRunner) Run(seed uint64, ar *Arith) (MCRepResult, error) {
	k := r.k
	switch k.Name {
	case "fir":
		if r.x == nil {
			r.x = make([]uint64, k.RepSize)
			r.refY = make([]uint64, k.RepSize)
			r.gotY = make([]uint64, k.RepSize)
		}
		x := twoToneInto(r.x, seed)
		ref, got := r.fir.applyInto(r.refY, x, r.exact), r.fir.applyInto(r.gotY, x, ar)
		res := censusSlices(ref, got)
		res.Metric = core.CapSNR(SignalSNR(ref, got))
		return res, nil
	case "blur", "sobel":
		if r.img == nil {
			w, h := 64, k.RepSize/64
			r.img, r.refImg, r.gotImg = NewImage(w, h), NewImage(w, h), NewImage(w, h)
		}
		img := syntheticInto(r.img, seed)
		var ref, got *Image
		if k.Name == "blur" {
			ref, got = gaussianBlur3Into(r.refImg, img, r.exact), gaussianBlur3Into(r.gotImg, img, ar)
		} else {
			ref, got = sobelInto(r.refImg, img, r.exact), sobelInto(r.gotImg, img, ar)
		}
		res := censusImages(ref, got)
		res.Metric = core.CapSNR(PSNR(ref, got))
		return res, nil
	case "kmeans":
		points, _ := ThreeBlobs(k.RepSize, seed)
		km := KMeans{K: 3, Iters: 4}
		refC, _ := km.Clusters(points, r.exact, seed)
		gotC, _ := km.Clusters(points, ar, seed)
		// Census under sorted matching, like CentroidRMSE grades.
		rs, gs := append([]uint64(nil), refC...), append([]uint64(nil), gotC...)
		sortU64(rs)
		sortU64(gs)
		res := censusSlices(rs, gs)
		res.Metric = CentroidRMSE(gotC, refC)
		return res, nil
	default:
		return MCRepResult{}, fmt.Errorf("apps: unknown MC kernel %q", k.Name)
	}
}

func censusSlices(ref, got []uint64) MCRepResult {
	var res MCRepResult
	for i := range ref {
		d := ref[i] - got[i]
		if got[i] > ref[i] {
			d = got[i] - ref[i]
		}
		res.Hist[histBin(d)]++
		res.Outputs++
		if d != 0 {
			res.Errors++
		}
	}
	return res
}

func censusImages(ref, got *Image) MCRepResult {
	var res MCRepResult
	for i := range ref.Pix {
		d := int(ref.Pix[i]) - int(got.Pix[i])
		if d < 0 {
			d = -d
		}
		res.Hist[histBin(uint64(d))]++
		res.Outputs++
		if d != 0 {
			res.Errors++
		}
	}
	return res
}
