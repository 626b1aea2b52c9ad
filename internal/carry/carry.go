// Package carry provides the carry-chain arithmetic at the heart of the
// paper's statistical model (Section IV): the theoretical maximal carry
// chain Cthmax of an operand pair, and the carry-limited "modified adder"
// that computes a sum whose carries may travel at most C positions from
// their generation point.
//
// Chain-length convention: a carry born at generate position j (a_j = b_j
// = 1) that is then propagated through positions j+1 … j+L−1 has traveled
// L positions when it reaches position j+L. For an N-bit adder the chain
// length therefore lies in [0, N]: 0 when no carry is generated anywhere,
// N when a carry born at bit 0 propagates out of the carry output. This
// matches Table I's 0…N columns.
//
// The kernels work on whole words. With generate g = a·b and propagate
// p = a⊕b, the set of positions a carry has reached after traveling d
// positions is
//
//	t₁ = g≪1,  t_{d+1} = (t_d ∧ p)≪1
//
// because a carry travels on only through a propagate bit. Cthmax is the
// largest d with t_d ≠ 0, and the carry vector of the modified adder
// truncated at Cmax is
//
//	c = t₁ ∨ t₂ ∨ … ∨ t_Cmax,  sum = p ⊕ c.
//
// This equals the bit-serial definition (walk the bits, track the live
// chain's length, pass a carry while the length is at most Cmax) because
// g ∧ p = 0: a generate bit is never a propagate bit, so every chain stops
// at the next generate or kill position and at most one chain reaches any
// bit. The fronts t_d are therefore disjoint, the bit that t_d reaches
// receives exactly the carry the serial walk passes at distance d, and
// the OR never merges two chains. Each loop runs once per chain-length
// step — at most the longest chain — instead of once per bit.
// LongestChain walks the fronts before their shift (t_d≫1), so Cthmax
// also holds at width 64, where the carry out has no bit of its own.
package carry

import "fmt"

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(width) - 1
}

// GenProp returns the bitwise generate (a·b) and propagate (a⊕b) words.
func GenProp(a, b uint64, width int) (g, p uint64) {
	m := mask(width)
	return a & b & m, (a ^ b) & m
}

// Cthmax returns the theoretical maximal carry-chain length of a+b for a
// width-bit adder (no carry-in): the farthest any generated carry travels.
func Cthmax(a, b uint64, width int) int {
	return LongestChain(GenProp(a, b, width))
}

// LongestChain returns the longest carry chain of the generate and
// propagate words g, p (disjoint, as GenProp returns them): Cthmax
// without the operand masking.
func LongestChain(g, p uint64) int {
	n := 0
	for t := g; t != 0; t = t << 1 & p {
		n++
	}
	return n
}

// MaxChains returns, for each bit position i, the length of the carry
// chain arriving into position i in the exact addition (0 when no carry
// arrives). Index width holds the chain arriving at the carry output.
// Useful for per-bit failure analysis (Fig. 5).
func MaxChains(a, b uint64, width int) []int {
	g, p := GenProp(a, b, width)
	arr := make([]int, width+1)
	live := false
	dist := 0
	for i := 0; i <= width; i++ {
		if live {
			arr[i] = dist
		}
		if i == width {
			break
		}
		switch {
		case g>>uint(i)&1 == 1:
			live, dist = true, 1
		case p>>uint(i)&1 == 1 && live:
			dist++
		default:
			live, dist = false, 0
		}
	}
	return arr
}

// LimitedAdd computes the modified adder of the paper's model: the sum of
// a and b in which every carry chain is truncated after traveling cmax
// positions. cmax = width (or more) reproduces the exact sum; cmax = 0
// suppresses all carries (a XOR b). The returned word includes the carry
// out at bit position width.
func LimitedAdd(a, b uint64, width, cmax int) uint64 {
	if width < 1 || width > 63 {
		panic(fmt.Sprintf("carry: width %d outside [1, 63]", width))
	}
	g, p := GenProp(a, b, width)
	return (p ^ LimitedCarries(g, p, cmax)) & (mask(width) | 1<<uint(width))
}

// LimitedCarries returns the carry vector of the generate and propagate
// words g, p (disjoint) when every chain is truncated after cmax
// positions: bit i is set when a carry arrives into position i. The sum
// word of the truncated adder is p ^ LimitedCarries(g, p, cmax).
func LimitedCarries(g, p uint64, cmax int) uint64 {
	var c uint64
	t := g << 1
	for d := 1; d <= cmax && t != 0; d++ {
		c |= t
		t = t & p << 1
	}
	return c
}

// ExactAdd returns a+b masked to width bits plus the carry out at bit
// width — the golden reference in the model's output format.
func ExactAdd(a, b uint64, width int) uint64 {
	m := mask(width)
	return (a&m + b&m) & (m | 1<<uint(width))
}
