package sgd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleDecreasesAndRobbinsMonro(t *testing.T) {
	s := NewSchedule(0.5, 0.1)
	prev := math.Inf(1)
	var sum, sumSq float64
	for i := 0; i < 10000; i++ {
		eta := s.Next()
		if eta > prev {
			t.Fatalf("schedule not monotone at step %d", i)
		}
		prev = eta
		sum += eta
		sumSq += eta * eta
	}
	// η_t ~ 1/(λt): partial sums diverge (grow with horizon); squares converge.
	if sum < 50 {
		t.Fatalf("Σηt = %v, expected divergent-looking growth", sum)
	}
	if sumSq > 10 {
		t.Fatalf("Ση²t = %v, expected bounded", sumSq)
	}
}

func TestSchedulePeekAndSetSteps(t *testing.T) {
	s := NewSchedule(1, 1)
	if s.Next() != 1 {
		t.Fatal("initial rate should be eta0")
	}
	if s.Steps() != 1 {
		t.Fatal("step count wrong")
	}
	s.SetSteps(9)
	want := 1.0 / (1 + 9)
	if got := s.Next(); got != want {
		t.Fatalf("after SetSteps Next=%v want %v", got, want)
	}
}

func TestScheduleZeroLambdaIsConstant(t *testing.T) {
	s := NewSchedule(0.3, 0)
	for i := 0; i < 5; i++ {
		if s.Next() != 0.3 {
			t.Fatal("λ=0 schedule must be constant")
		}
	}
}

func TestTuneEta0PicksMinimum(t *testing.T) {
	// Loss is a parabola in log(eta) minimised near eta=0.04.
	got := TuneEta0(1e-4, 1, 2, func(eta float64) float64 {
		return math.Pow(math.Log(eta)-math.Log(0.04), 2)
	})
	if got < 0.02 || got > 0.08 {
		t.Fatalf("TuneEta0 = %v, want near 0.04", got)
	}
}

func TestTuneEta0SkipsNaN(t *testing.T) {
	got := TuneEta0(0.01, 1, 10, func(eta float64) float64 {
		if eta > 0.05 {
			return math.NaN() // diverged
		}
		return 1 / eta // prefers larger among stable ones
	})
	if got != 0.01 && got != 0.1 {
		// only 0.01, 0.1, 1 are candidates; 0.1 and 1 are NaN.
	}
	if got != 0.01 {
		t.Fatalf("TuneEta0 = %v, want 0.01", got)
	}
}

func TestTuneEta0AllNaNFallsBackToLo(t *testing.T) {
	got := TuneEta0(0.5, 8, 2, func(float64) float64 { return math.NaN() })
	if got != 0.5 {
		t.Fatalf("fallback = %v, want lo", got)
	}
}

func TestTuningSampleSize(t *testing.T) {
	if TuningSampleSize(10) != 10 || TuningSampleSize(5000) != 1000 {
		t.Fatal("TuningSampleSize wrong")
	}
}

func TestOrderSequential(t *testing.T) {
	o := Order(5, false, nil)
	for i, v := range o {
		if v != i {
			t.Fatalf("sequential order wrong: %v", o)
		}
	}
}

func TestOrderShuffledIsPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		o := Order(n, true, rand.New(rand.NewSource(seed)))
		seen := make([]bool, n)
		for _, v := range o {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(o) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTuneEta0Sequence pins the one η0 search for both ranges in use:
// svm.AutoTune's (1e-4, 16, ×4) and the decoder groups' (1e-5, 4, ×4). The
// values passed to trial must be lo·factorᵏ accumulated by repeated
// multiplication, bit for bit and in ascending order up to hi; NaN and ±Inf
// losses are skipped; a tie keeps the earlier candidate. The benchmark's
// frozen E_BA depends on this sequence.
func TestTuneEta0Sequence(t *testing.T) {
	for _, r := range []struct {
		lo, hi, factor float64
		n              int
	}{
		{1e-4, 16, 4, 9}, // 1e-4·4⁸ = 6.5536
		{1e-5, 4, 4, 10}, // 1e-5·4⁹ = 2.62144
	} {
		// Losses by candidate: NaN and -Inf ahead of the finite minimum,
		// which candidates 3 and 4 tie for, then +Inf.
		losses := []float64{math.NaN(), math.Inf(-1), 5, 0.5, 0.5, math.Inf(1), 3}
		var got []float64
		best := TuneEta0(r.lo, r.hi, r.factor, func(eta float64) float64 {
			got = append(got, eta)
			if k := len(got) - 1; k < len(losses) {
				return losses[k]
			}
			return 1
		})
		if len(got) != r.n {
			t.Fatalf("range (%g, %g, ×%g): %d candidates, want %d", r.lo, r.hi, r.factor, len(got), r.n)
		}
		want := r.lo
		for k, eta := range got {
			if math.Float64bits(eta) != math.Float64bits(want) {
				t.Fatalf("range (%g, %g, ×%g): candidate %d = %v, want %v", r.lo, r.hi, r.factor, k, eta, want)
			}
			want *= r.factor
		}
		if math.Float64bits(best) != math.Float64bits(got[3]) {
			t.Fatalf("range (%g, %g, ×%g): picked %v, want candidate 3 (%v)", r.lo, r.hi, r.factor, best, got[3])
		}
	}
}
