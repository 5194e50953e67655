package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean([]float64{7}); got != 7 {
		t.Fatalf("Mean = %v, want 7", got)
	}
}

func TestMeanPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean(nil) did not panic")
		}
	}()
	Mean(nil)
}

func TestMinMax(t *testing.T) {
	xs := []int{4, -2, 9, 0}
	if Min(xs) != -2 || Max(xs) != 9 {
		t.Fatalf("Min/Max = %d/%d", Min(xs), Max(xs))
	}
}

func TestMinMaxPanicEmpty(t *testing.T) {
	for name, fn := range map[string]func(){
		"Min": func() { Min(nil) },
		"Max": func() { Max(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(nil) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPercentOver(t *testing.T) {
	if got := PercentOver(200, 230); got != 115 {
		t.Fatalf("PercentOver = %v, want 115", got)
	}
	if got := PercentOver(100, 100); got != 100 {
		t.Fatalf("PercentOver equal = %v, want 100", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PercentOver(0, ...) did not panic")
		}
	}()
	PercentOver(0, 5)
}

func TestRoundPercent(t *testing.T) {
	cases := map[float64]int{99.4: 99, 99.5: 100, 100.0: 100, 149.9: 150, -1.5: -2}
	for in, want := range cases {
		if got := RoundPercent(in); got != want {
			t.Errorf("RoundPercent(%v) = %d, want %d", in, got, want)
		}
	}
}

func TestMeanBetweenMinAndMaxProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		ints := make([]int, n)
		for i := range xs {
			ints[i] = rng.Intn(1000) - 500
			xs[i] = float64(ints[i])
		}
		m := Mean(xs)
		return float64(Min(ints)) <= m && m <= float64(Max(ints))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
