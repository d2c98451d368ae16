package parmac

import (
	"math"
	"slices"
	"testing"

	"repro/internal/retrieval"
)

func TestSyntheticBenchmarkShapes(t *testing.T) {
	base, queries := SyntheticBenchmark(300, 40, 16, 6, 1)
	if base.N != 300 || queries.N != 40 || base.D != 16 || queries.D != 16 {
		t.Fatalf("shapes: base %dx%d queries %dx%d", base.N, base.D, queries.N, queries.D)
	}
	if base.Dequant() == nil || queries.Dequant() == nil {
		t.Fatal("benchmark sets must be byte-quantised")
	}
}

func TestManifoldBenchmarkShapes(t *testing.T) {
	base, queries := ManifoldBenchmark(200, 20, 24, 2)
	if base.N != 200 || queries.N != 20 || base.D != 24 {
		t.Fatal("manifold shapes wrong")
	}
	// Manifold features are bounded by the sinusoid plus small noise.
	for i := 0; i < base.N; i++ {
		for _, v := range base.Point(i, nil) {
			if math.Abs(v) > 1.5 {
				t.Fatalf("feature %v outside sinusoid range", v)
			}
		}
	}
}

func TestTrainBinaryAutoencoderEndToEnd(t *testing.T) {
	ds, queries := SyntheticBenchmark(600, 40, 16, 8, 3)
	res := TrainBinaryAutoencoder(ds, BAOptions{
		Bits: 8, Machines: 3, Epochs: 1, Iterations: 5, Shuffle: true, Seed: 3,
	})
	if res.Model == nil || res.Model.L() != 8 || res.Model.D() != 16 {
		t.Fatal("model shape wrong")
	}
	if len(res.History) != 5 {
		t.Fatalf("history length %d", len(res.History))
	}
	if res.Codes.N != 600 || res.Codes.L != 8 {
		t.Fatal("codes shape wrong")
	}
	for _, h := range res.History {
		if h.ModelBytes <= 0 || h.AliveMachines != 3 {
			t.Fatalf("bad iteration record: %+v", h)
		}
	}
	// The model must encode queries and retrieve something sensible: better
	// than the random-codes floor.
	base := res.Model.Encode(ds, 1)
	qc := res.Model.Encode(queries, 1)
	truth := retrieval.GroundTruth(ds, queries, 30, 1)
	retr := make([][]int, queries.N)
	for q := 0; q < queries.N; q++ {
		retr[q] = retrieval.TopKHamming(base, qc.Code(q), 30)
	}
	prec := retrieval.Precision(truth, retr)
	floor := 30.0 / 600.0
	if prec < 3*floor {
		t.Fatalf("precision %v not clearly above the random floor %v", prec, floor)
	}
}

func TestTrainBinaryAutoencoderApproxZ(t *testing.T) {
	ds, _ := SyntheticBenchmark(300, 10, 24, 6, 4)
	res := TrainBinaryAutoencoder(ds, BAOptions{
		Bits: 18, Machines: 2, Iterations: 3, ApproxZ: true, Seed: 4,
	})
	if res.Model.L() != 18 {
		t.Fatal("18-bit model expected")
	}
	// L > D must be rejected (the paper defines the BA with L < D).
	small, _ := SyntheticBenchmark(50, 5, 8, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for L > D")
		}
	}()
	TrainBinaryAutoencoder(small, BAOptions{Bits: 18, Iterations: 1, Seed: 4})
}

func TestTrainBinaryAutoencoderDeterministic(t *testing.T) {
	ds, _ := SyntheticBenchmark(300, 10, 12, 6, 5)
	run := func() *retrieval.Codes {
		return TrainBinaryAutoencoder(ds, BAOptions{
			Bits: 8, Machines: 2, Iterations: 3, Seed: 5,
		}).Codes
	}
	if a, b := run(), run(); a.N != b.N || a.L != b.L || !slices.Equal(a.Data, b.Data) {
		t.Fatal("facade training must be deterministic")
	}
}

// TestTrainBinaryAutoencoderCodesInDatasetOrder: BAResult.Codes is h(X) in
// the order of ds, so row i is point i's code. Shards permute the points
// (ShuffledShardIndices), so the shard-ordered auxiliary codes are not.
func TestTrainBinaryAutoencoderCodesInDatasetOrder(t *testing.T) {
	ds, _ := SyntheticBenchmark(300, 10, 12, 6, 8)
	res := TrainBinaryAutoencoder(ds, BAOptions{Bits: 8, Machines: 3, Iterations: 3, Seed: 8})
	want := res.Model.Encode(ds, 1)
	for i := 0; i < ds.N; i++ {
		if !slices.Equal(res.Codes.Code(i), want.Code(i)) {
			t.Fatalf("row %d of BAResult.Codes is not h(x_%d)", i, i)
		}
	}
}

func TestTrainBinaryAutoencoderValidation(t *testing.T) {
	ds, _ := SyntheticBenchmark(100, 10, 8, 4, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing Bits")
		}
	}()
	TrainBinaryAutoencoder(ds, BAOptions{})
}

func TestDefaultsFillIn(t *testing.T) {
	ds, _ := SyntheticBenchmark(200, 10, 8, 4, 7)
	res := TrainBinaryAutoencoder(ds, BAOptions{Bits: 6, Seed: 7}) // 1 machine, 10 iters
	if len(res.History) != 10 {
		t.Fatalf("default iterations = %d", len(res.History))
	}
	if res.History[0].AliveMachines != 1 {
		t.Fatal("default machine count should be 1")
	}
}
