package apps

import (
	"math"
	"math/rand/v2"
)

// FIR is a low-pass filter with small integer taps (power-of-two-friendly,
// so the whole datapath is shifts and adds through the approximate adder).
// The default taps implement a 7-tap binomial smoother with gain 64.
type FIR struct {
	Taps  []int
	Shift int // output downshift: sum / 2^Shift
}

// BinomialFIR returns the [1 6 15 20 15 6 1]/64 low-pass filter.
func BinomialFIR() FIR {
	return FIR{Taps: []int{1, 6, 15, 20, 15, 6, 1}, Shift: 6}
}

// Apply filters the signal (unsigned samples < 256) with the approximate
// arithmetic; the output has the same length (edges zero-padded).
func (f FIR) Apply(x []uint64, ar *Arith) []uint64 {
	return f.applyInto(make([]uint64, len(x)), x, ar)
}

// applyInto is Apply writing into y (len(y) == len(x)).
func (f FIR) applyInto(y, x []uint64, ar *Arith) []uint64 {
	var stack [sumTreeStack]uint64
	terms := stack[:0]
	half := len(f.Taps) / 2
	for n := range x {
		terms = terms[:0]
		for k, c := range f.Taps {
			idx := n + k - half
			if idx < 0 || idx >= len(x) {
				continue
			}
			terms = append(terms, ar.MulSmall(x[idx], c))
		}
		y[n] = ar.SumTree(terms) >> uint(f.Shift)
	}
	return y
}

// TwoTone synthesizes a deterministic test signal: a slow sine (the band
// to keep) plus a fast sine (the band to reject) plus mild noise, offset
// into the unsigned range.
func TwoTone(n int, seed uint64) []uint64 {
	return twoToneInto(make([]uint64, n), seed)
}

// twoToneInto writes the TwoTone signal of len(out) samples into out.
func twoToneInto(out []uint64, seed uint64) []uint64 {
	rng := rand.NewPCG(seed, 0x70e5)
	for i := range out {
		slow := 60 * math.Sin(2*math.Pi*float64(i)/64)
		fast := 25 * math.Sin(2*math.Pi*float64(i)/4)
		noise := float64(rng.Uint64()%5) - 2
		v := 128 + slow + fast + noise
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out[i] = uint64(v)
	}
	return out
}

// SignalSNR returns the ratio (dB) of reference signal power to the power
// of the deviation between got and ref.
func SignalSNR(ref, got []uint64) float64 {
	if len(ref) != len(got) {
		return math.NaN()
	}
	var sig, err float64
	for i := range ref {
		r := float64(ref[i])
		d := r - float64(got[i])
		sig += r * r
		err += d * d
	}
	if err == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/err)
}

// DotProduct accumulates element-wise products through the approximate
// adder (products themselves are exact — the study isolates the adder, as
// the paper's operator model does). Inputs must be small enough for the
// accumulation to stay within the word width.
func DotProduct(a, b []uint64, ar *Arith) uint64 {
	terms := make([]uint64, 0, len(a))
	for i := range a {
		if i >= len(b) {
			break
		}
		terms = append(terms, a[i]*b[i]&wordMask)
	}
	return ar.SumTree(terms)
}
