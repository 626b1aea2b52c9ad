// Package apps provides the error-resilient application kernels the paper
// motivates ("video processing, image recognition, ... have the inherent
// ability to tolerate hardware uncertainty"): an image smoothing filter, a
// Sobel edge detector, an FIR low-pass filter and a dot-product kernel.
//
// Every kernel performs its additions through a core.HardwareAdder, so the
// same code runs on the exact adder, on the timing-simulator oracle at any
// operating triad, or on the trained statistical model — connecting
// circuit-level BER to application-level quality (PSNR / SNR), which is
// the algorithmic-level use the paper's Section IV model targets.
package apps

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
)

// Word is the accumulator width the kernels run at; 16 bits comfortably
// holds the 3×3 kernel sums of 8-bit pixels and the FIR accumulations.
const Word = 16

const wordMask = uint64(1)<<Word - 1

// Arith bundles the approximate adder with helper operations derived from
// it (subtraction and small-constant multiplication are add networks, so
// their errors inherit the adder's behaviour — the circuit-level
// approximation composes upward exactly as it would in hardware).
type Arith struct {
	adder core.HardwareAdder
	// exact and approx let Add skip the interface call for the two
	// adders every Monte Carlo rep runs on: the reference and the model.
	exact  bool
	approx *core.ApproxAdder
}

// NewArith wraps an adder; it must be Word bits wide.
func NewArith(a core.HardwareAdder) (*Arith, error) {
	if a.Width() != Word {
		return nil, fmt.Errorf("apps: adder width %d, need %d", a.Width(), Word)
	}
	ar := &Arith{adder: a}
	switch ad := a.(type) {
	case core.ExactAdder:
		ar.exact = true
	case *core.ApproxAdder:
		ar.approx = ad
	}
	return ar, nil
}

// Add returns (a + b) masked to the word width.
func (ar *Arith) Add(a, b uint64) uint64 {
	a, b = a&wordMask, b&wordMask
	switch {
	case ar.exact:
		return (a + b) & wordMask
	case ar.approx != nil:
		return ar.approx.Add(a, b) & wordMask
	}
	return ar.adder.Add(a, b) & wordMask
}

// Sub returns (a − b) in two's complement via the adder: a + ~b + 1.
func (ar *Arith) Sub(a, b uint64) uint64 {
	return ar.Add(ar.Add(a, ^b&wordMask), 1)
}

// MulPow2 returns v·2^k (an exact shift: wiring, not logic).
func (ar *Arith) MulPow2(v uint64, k int) uint64 {
	return v << uint(k) & wordMask
}

// MulSmall multiplies by a small constant using shift-and-add through the
// approximate adder.
func (ar *Arith) MulSmall(v uint64, c int) uint64 {
	var acc uint64
	first := true
	for k := 0; c != 0; k++ {
		if c&1 == 1 {
			term := ar.MulPow2(v, k)
			if first {
				acc, first = term, false
			} else {
				acc = ar.Add(acc, term)
			}
		}
		c >>= 1
	}
	return acc
}

// sumTreeStack is the operand count SumTree reduces without allocating:
// enough for every kernel's per-sample sums.
const sumTreeStack = 16

// SumTree adds the values in a balanced tree (the natural hardware
// reduction shape): adjacent pairs level by level, an odd last value
// carried up unchanged.
func (ar *Arith) SumTree(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	var buf [sumTreeStack]uint64
	work := append(buf[:0], vals...)
	for len(work) > 1 {
		next := work[:0]
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, ar.Add(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// Neg reports whether v is negative in Word-bit two's complement, and Abs
// returns |v| via the adder when needed.
func (ar *Arith) Abs(v uint64) uint64 {
	if v&(1<<(Word-1)) == 0 {
		return v
	}
	return ar.Add(^v&wordMask, 1)
}

// Image is a grayscale 8-bit image.
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a zero image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel with border clamping.
func (im *Image) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set writes a pixel (no bounds check; callers iterate in range).
func (im *Image) Set(x, y int, v uint8) { im.Pix[y*im.W+x] = v }

// Synthetic renders a deterministic test scene: gradient background,
// bright disc, dark rectangle, mild noise — enough structure for PSNR and
// edge detection to be meaningful.
func Synthetic(w, h int, seed uint64) *Image {
	return syntheticInto(NewImage(w, h), seed)
}

// syntheticInto renders the Synthetic scene of img's size into img.
func syntheticInto(img *Image, seed uint64) *Image {
	w, h := img.W, img.H
	rng := rand.NewPCG(seed, 0x1ca7e)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 40 + 150*x/w
			dx, dy := x-w/3, y-h/3
			if dx*dx+dy*dy < (w/5)*(w/5) {
				v = 230
			}
			if x > 2*w/3 && x < 5*w/6 && y > h/2 && y < 5*h/6 {
				v = 25
			}
			v += int(rng.Uint64()%7) - 3
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img.Set(x, y, uint8(v))
		}
	}
	return img
}

// GaussianBlur3 applies the [1 2 1; 2 4 2; 1 2 1]/16 kernel using only the
// approximate adder (weights are shift-and-add, division is a shift).
func GaussianBlur3(img *Image, ar *Arith) *Image {
	return gaussianBlur3Into(NewImage(img.W, img.H), img, ar)
}

// gaussianBlur3Into is GaussianBlur3 writing into out (same size as img).
func gaussianBlur3Into(out, img *Image, ar *Arith) *Image {
	var terms [9]uint64
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			i := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					w := 1 << (2 - abs(dx) - abs(dy)) // 4, 2, or 1
					terms[i] = ar.MulSmall(uint64(img.At(x+dx, y+dy)), w)
					i++
				}
			}
			v := ar.SumTree(terms[:]) >> 4
			if v > 255 {
				v = 255
			}
			out.Set(x, y, uint8(v))
		}
	}
	return out
}

// Sobel computes the gradient magnitude |gx| + |gy| with adder-based
// subtraction and absolute value; output saturates at 255.
func Sobel(img *Image, ar *Arith) *Image {
	return sobelInto(NewImage(img.W, img.H), img, ar)
}

// sobelInto is Sobel writing into out (same size as img).
func sobelInto(out, img *Image, ar *Arith) *Image {
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			// The 3×3 neighbourhood, n[dy+1][dx+1].
			var n [3][3]uint64
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					n[dy+1][dx+1] = uint64(img.At(x+dx, y+dy))
				}
			}
			gxPos := ar.SumTree([]uint64{n[0][2], ar.MulPow2(n[1][2], 1), n[2][2]})
			gxNeg := ar.SumTree([]uint64{n[0][0], ar.MulPow2(n[1][0], 1), n[2][0]})
			gyPos := ar.SumTree([]uint64{n[2][0], ar.MulPow2(n[2][1], 1), n[2][2]})
			gyNeg := ar.SumTree([]uint64{n[0][0], ar.MulPow2(n[0][1], 1), n[0][2]})
			gx := ar.Abs(ar.Sub(gxPos, gxNeg))
			gy := ar.Abs(ar.Sub(gyPos, gyNeg))
			m := ar.Add(gx, gy)
			if m > 255 {
				m = 255
			}
			out.Set(x, y, uint8(m))
		}
	}
	return out
}

// PSNR returns the peak signal-to-noise ratio (dB) of img versus the
// reference; +Inf for identical images.
func PSNR(ref, img *Image) float64 {
	if ref.W != img.W || ref.H != img.H {
		return math.NaN()
	}
	var sse float64
	for i := range ref.Pix {
		d := float64(ref.Pix[i]) - float64(img.Pix[i])
		sse += d * d
	}
	if sse == 0 {
		return math.Inf(1)
	}
	mse := sse / float64(len(ref.Pix))
	return 10 * math.Log10(255*255/mse)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
