package carry

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// The bit-serial kernels below are the oracle for the word-level ones:
// they walk the output bits one at a time, tracking the live chain's
// length exactly as the paper's modified adder is defined.

// cthmaxSerial follows every generated carry up its propagate run.
func cthmaxSerial(a, b uint64, width int) int {
	g, p := GenProp(a, b, width)
	best := 0
	for t := g; t != 0; t &= t - 1 {
		j := bits.TrailingZeros64(t)
		// The carry exits bit j and rides consecutive propagate bits.
		l := 1
		for k := j + 1; k < width && p>>uint(k)&1 == 1; k++ {
			l++
		}
		if l > best {
			best = l
		}
	}
	return best
}

// limitedAddSerial passes a carry into bit i while the chain arriving
// there has traveled at most cmax positions.
func limitedAddSerial(a, b uint64, width, cmax int) uint64 {
	g, p := GenProp(a, b, width)
	var sum uint64
	live := false
	dist := 0
	for i := 0; i <= width; i++ {
		cin := uint64(0)
		if live && dist <= cmax {
			cin = 1
		}
		if i == width {
			sum |= cin << uint(width)
			break
		}
		sum |= ((p >> uint(i) & 1) ^ cin) << uint(i)
		switch {
		case g>>uint(i)&1 == 1:
			live, dist = true, 1
		case p>>uint(i)&1 == 1 && live:
			dist++
		default:
			live, dist = false, 0
		}
	}
	return sum
}

// oracleMismatch compares both word-level kernels with the oracle on one
// operand pair and carry limit, describing the first disagreement.
func oracleMismatch(a, b uint64, width, cmax int) (string, bool) {
	if got, want := Cthmax(a, b, width), cthmaxSerial(a, b, width); got != want {
		return fmt.Sprintf("Cthmax(%#x, %#x, %d) = %d, oracle %d", a, b, width, got, want), true
	}
	if got, want := LimitedAdd(a, b, width, cmax), limitedAddSerial(a, b, width, cmax); got != want {
		return fmt.Sprintf("LimitedAdd(%#x, %#x, %d, %d) = %#x, oracle %#x", a, b, width, cmax, got, want), true
	}
	return "", false
}

// TestKernelsMatchOracleExhaustive covers every operand pair and every
// carry limit from -1 to width+1 at widths 1 to 10 (8 under -short).
func TestKernelsMatchOracleExhaustive(t *testing.T) {
	maxWidth := 10
	if testing.Short() {
		maxWidth = 8
	}
	for width := 1; width <= maxWidth; width++ {
		n := uint64(1) << uint(width)
		for a := uint64(0); a < n; a++ {
			for b := uint64(0); b < n; b++ {
				if got, want := Cthmax(a, b, width), cthmaxSerial(a, b, width); got != want {
					t.Fatalf("Cthmax(%#x, %#x, %d) = %d, oracle %d", a, b, width, got, want)
				}
				for c := -1; c <= width+1; c++ {
					if got, want := LimitedAdd(a, b, width, c), limitedAddSerial(a, b, width, c); got != want {
						t.Fatalf("LimitedAdd(%#x, %#x, %d, %d) = %#x, oracle %#x", a, b, width, c, got, want)
					}
				}
			}
		}
	}
}

// TestKernelsMatchOracleQuick samples full 64-bit operands (so the bits
// above width must be ignored) at widths 16 and 63.
func TestKernelsMatchOracleQuick(t *testing.T) {
	for _, width := range []int{16, 63} {
		f := func(a, b uint64, c uint8) bool {
			_, bad := oracleMismatch(a, b, width, int(c)%(width+3)-1)
			return !bad
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
	}
}

// TestCthmaxFullWordMatchesOracle covers width 64, which Cthmax accepts
// (only LimitedAdd needs a spare bit for the carry out).
func TestCthmaxFullWordMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if i%2 == 0 {
			b = ^a ^ 1<<rng.UintN(64) // long propagate runs
		}
		if got, want := Cthmax(a, b, 64), cthmaxSerial(a, b, 64); got != want {
			t.Fatalf("Cthmax(%#x, %#x, 64) = %d, oracle %d", a, b, got, want)
		}
	}
}

// FuzzLimitedAdd checks the word-level kernels against the bit-serial
// oracle on arbitrary operands, widths and carry limits.
func FuzzLimitedAdd(f *testing.F) {
	f.Add(uint64(0xFF), uint64(0x01), uint8(8), int8(3))
	f.Add(uint64(0xFFFF), uint64(0x0001), uint8(16), int8(16))
	f.Add(^uint64(0), uint64(1), uint8(63), int8(62))
	f.Add(uint64(0xAAAA), uint64(0x5555), uint8(16), int8(0))
	f.Add(uint64(0x8000), uint64(0x8000), uint8(16), int8(-1))
	f.Fuzz(func(t *testing.T, a, b uint64, w uint8, cmax int8) {
		if msg, bad := oracleMismatch(a, b, 1+int(w)%63, int(cmax)); bad {
			t.Fatal(msg)
		}
	})
}
