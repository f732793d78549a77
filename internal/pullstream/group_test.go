package pullstream

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestGroupExactMultiple(t *testing.T) {
	got, err := Collect(Group[int](3)(Count(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d groups", len(got))
	}
	if got[0][0] != 1 || got[2][2] != 9 {
		t.Fatalf("groups = %v", got)
	}
}

func TestGroupRemainder(t *testing.T) {
	got, err := Collect(Group[int](4)(Count(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d groups", len(got))
	}
	if len(got[2]) != 2 {
		t.Fatalf("last group = %v, want 2 elements", got[2])
	}
}

func TestGroupEmpty(t *testing.T) {
	got, err := Collect(Group[int](4)(Values[int]()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestGroupErrorAfterPartial(t *testing.T) {
	boom := errors.New("boom")
	got, err := Collect(Group[int](3)(failAfter(5, boom)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The partial group before the failure is still delivered.
	if len(got) != 2 || len(got[1]) != 2 {
		t.Fatalf("groups = %v", got)
	}
}

func TestFlattenInverseOfGroup(t *testing.T) {
	got, err := Collect(Flatten[int]()(Group[int](4)(Count(10))))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d values", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestQuickGroupFlattenRoundTrip(t *testing.T) {
	f := func(vs []int16, n uint8) bool {
		size := int(n%7) + 1
		got, err := Collect(Flatten[int16]()(Group[int16](size)(Values(vs...))))
		if err != nil {
			return false
		}
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenSkipsEmptySlices(t *testing.T) {
	src := Values([]int{}, []int{1}, []int{}, []int{2, 3}, []int{})
	got, err := Collect(Flatten[int]()(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}
