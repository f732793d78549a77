package apps

import (
	"fmt"
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

// collatzStepsBigParse is CollatzSteps before the scratch struct: every
// start parsed by SetString into its own big.Int. The differential test
// holds the scratch version to it.
func collatzStepsBigParse(nStr string) (CollatzResult, error) {
	n, ok := new(big.Int).SetString(nStr, 10)
	if !ok {
		return CollatzResult{}, fmt.Errorf("collatz: %q is not a decimal integer", nStr)
	}
	if n.Sign() <= 0 {
		return CollatzResult{}, fmt.Errorf("collatz: %s is not positive", nStr)
	}
	res := CollatzResult{N: nStr}
	t := new(big.Int)
	for n.Cmp(bigOne) != 0 {
		if z := n.TrailingZeroBits(); z > 0 {
			n.Rsh(n, z)
			res.Steps += int(z)
			res.Ops += 2 * int(z)
		} else {
			n.Add(n, t.Lsh(n, 1))
			n.Add(n, bigOne)
			res.Steps++
			res.Ops += 3
		}
	}
	return res, nil
}

// TestCollatzMatchesBigParse compares CollatzSteps with
// collatzStepsBigParse, results and errors, over 10^5 consecutive starts
// from 10^6, a start above 2^64 (the SetString path) and the inputs each
// parser reads its own way.
func TestCollatzMatchesBigParse(t *testing.T) {
	starts := CollatzInputs(big.NewInt(1_000_000), 100_000)
	above64 := new(big.Int).Add(new(big.Int).Lsh(bigOne, 64), big.NewInt(27))
	starts = append(starts, above64.String(), "banana", "-5", "0", "+5", "007", "", "18446744073709551616")
	for _, n := range starts {
		got, gotErr := CollatzSteps(n)
		want, wantErr := collatzStepsBigParse(n)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("CollatzSteps(%q) = %+v, %v; SetString parse gives %+v, %v", n, got, gotErr, want, wantErr)
		}
	}
}

// TestCollatzAllocsPerCall guards the in-place kernel: the division loop
// allocated ~116 objects for a 7-digit start, mostly QuoRem's quotients
// and remainders; stepping in place on one scratch struct leaves that
// struct.
func TestCollatzAllocsPerCall(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := CollatzSteps("1234567"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("CollatzSteps allocates %.1f objects per call, want at most 1", allocs)
	}
}
