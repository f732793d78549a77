package apps

import (
	"math/big"
	"testing"

	"pando/internal/race"
)

// collatzByDivision is the kernel as the paper's port writes it: parity by
// n mod 2, halving by n / 2 and 3n+1 by a multiplication. CollatzSteps
// must agree with it on every field.
func collatzByDivision(nStr string) CollatzResult {
	n, _ := new(big.Int).SetString(nStr, 10)
	two, three := big.NewInt(2), big.NewInt(3)
	res := CollatzResult{N: nStr}
	r := new(big.Int)
	for n.Cmp(bigOne) != 0 {
		if r.Mod(n, two).Sign() == 0 {
			n.Div(n, two)
			res.Ops += 2
		} else {
			n.Mul(n, three)
			n.Add(n, bigOne)
			res.Ops += 3
		}
		res.Steps++
	}
	return res
}

func checkCollatzRun(t *testing.T, start *big.Int, count int) {
	t.Helper()
	for _, n := range CollatzInputs(start, count) {
		got, err := CollatzSteps(n)
		if err != nil {
			t.Fatal(err)
		}
		if want := collatzByDivision(n); got != want {
			t.Fatalf("CollatzSteps(%s) = %+v, division loop gives %+v", n, got, want)
		}
	}
}

func TestCollatzMatchesDivisionLoop(t *testing.T) {
	above64 := new(big.Int).Lsh(bigOne, 64)
	runs := []struct {
		name  string
		start *big.Int
		count int
	}{
		{"1..1e4", big.NewInt(1), 10_000},
		// The 7-digit starts collatz-small streams on its two seeds.
		{"seed 1", big.NewInt(3_822_465), 20_000},
		{"seed 20190", big.NewInt(3_777_264), 20_000},
		{"above 2^64", above64, 2_000},
		{"2^70", new(big.Int).Lsh(bigOne, 70), 1},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) { checkCollatzRun(t, r.start, r.count) })
	}
}

// TestCollatzAllocsPerCall guards the in-place kernel: the division loop
// allocated ~116 objects for a 7-digit start, mostly QuoRem's quotients
// and remainders; stepping in place leaves the parse and the two
// big.Ints.
func TestCollatzAllocsPerCall(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := CollatzSteps("1234567"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("CollatzSteps allocates %.1f objects per call, want at most 8", allocs)
	}
}
