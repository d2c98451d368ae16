package core

import "testing"

// TestAdapter pins the shared Problem skeleton: the μ schedule is μ0 times
// the factor iter times, bit for bit on every machine (a factor that is not a
// power of two makes math.Pow round differently); Submodels hands out a copy
// of the set; OnModelSync installs exactly the objects it is given.
func TestAdapter(t *testing.T) {
	subs := []Submodel{&toySub{id: 0}, &toySub{id: 1}}
	a := NewAdapter(subs, 1e-4, 1.7)
	if a.Mu() != 1e-4 {
		t.Fatalf("μ before the first iteration = %v, want μ0", a.Mu())
	}
	want := 1e-4
	for iter := 0; iter <= 60; iter++ {
		a.OnIterationStart(iter)
		if a.Mu() != want {
			t.Fatalf("μ(%d) = %v, want %v", iter, a.Mu(), want)
		}
		want *= 1.7
	}

	got := a.Submodels()
	got[0] = nil
	if again := a.Submodels(); again[0] != subs[0] || again[1] != subs[1] {
		t.Fatal("overwriting the slice Submodels returned changed the adapter's set")
	}

	synced := []Submodel{&toySub{id: 0}, &toySub{id: 1}}
	a.OnModelSync(synced)
	for i, sm := range a.Submodels() {
		if sm != synced[i] {
			t.Fatalf("submodel %d after OnModelSync is not the object the engine synced", i)
		}
	}
}
