package apps

import (
	"fmt"
	"math/big"
	"strconv"
)

// This file implements the Collatz application (paper §4.1): an ongoing
// BOINC project searching for the integer that results in the largest
// number of computation steps under the Collatz rules. The paper's
// version was compiled from MATLAB to JavaScript and adapted to a
// BigNumber library; ours uses math/big directly. Throughput is measured
// in big-number operations per second (Table 2's Bignum/s).

var bigOne = big.NewInt(1)

// CollatzResult reports the number of steps for one starting integer.
type CollatzResult struct {
	N     string `json:"n"`
	Steps int    `json:"steps"`
	// Ops counts the paper's logical big-number operations, the Bignum/s
	// unit: mod + div per halving, mod + mul + add per 3n+1, not math/big calls.
	Ops int `json:"ops"`
}

// CollatzSteps counts the Collatz steps for the decimal integer nStr:
// n -> n/2 if even, n -> 3n+1 if odd, until n reaches 1. It works in place:
// a run of halvings is one shift, and 3n+1 is n + 2n + 1 via a temporary.
// Both integers start on four words each of one scratch allocation, and
// a start that fits 64 bits skips SetString.
func CollatzSteps(nStr string) (CollatzResult, error) {
	s := new(struct {
		n, t big.Int
		w    [8]big.Word
	})
	n, t := s.n.SetBits(s.w[:0:4]), s.t.SetBits(s.w[4:4:8])
	if u, err := strconv.ParseUint(nStr, 10, 64); err == nil {
		n.SetUint64(u)
	} else if _, ok := n.SetString(nStr, 10); !ok {
		return CollatzResult{}, fmt.Errorf("collatz: %q is not a decimal integer", nStr)
	}
	if n.Sign() <= 0 {
		return CollatzResult{}, fmt.Errorf("collatz: %s is not positive", nStr)
	}
	res := CollatzResult{N: nStr}
	for n.Cmp(bigOne) != 0 {
		if z := n.TrailingZeroBits(); z > 0 {
			n.Rsh(n, z)
			res.Steps += int(z)
			res.Ops += 2 * int(z) // mod + div per halving
		} else {
			n.Add(n, t.Lsh(n, 1))
			n.Add(n, bigOne)
			res.Steps++
			res.Ops += 3 // mod + mul + add
		}
	}
	return res, nil
}

// CollatzInputs lists count consecutive starting integers from start, as
// decimal strings (inputs arrive as strings on Pando's standard input in
// the paper's pipeline).
func CollatzInputs(start *big.Int, count int) []string {
	out := make([]string, 0, count)
	n := new(big.Int).Set(start)
	for i := 0; i < count; i++ {
		out = append(out, n.String())
		n = new(big.Int).Add(n, bigOne)
	}
	return out
}

// MaxCollatz is the Post stage of the pipeline (Figure 10): keep the
// input with the largest number of steps.
func MaxCollatz(results []CollatzResult) (CollatzResult, bool) {
	if len(results) == 0 {
		return CollatzResult{}, false
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Steps > best.Steps {
			best = r
		}
	}
	return best, true
}
