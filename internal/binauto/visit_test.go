package binauto

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pca"
	"repro/internal/retrieval"
	"repro/internal/sgd"
	"repro/internal/svm"
)

// bitLabel returns the ±1 label view of bit l of z.
func bitLabel(z *retrieval.Codes, l int) func(i int) float64 {
	return func(i int) float64 {
		if z.Bit(i, l) {
			return 1
		}
		return -1
	}
}

// pointRows is the reference svm.Samples: bit `bit` of z as ±1 labels over
// Point copies of pts, trained by StepFused and scored by Margin — the
// encoder visit as it was before rows were read in place.
type pointRows struct {
	pts sgd.Points
	z   *retrieval.Codes
	bit int
}

func (r pointRows) NumPoints() int { return r.pts.NumPoints() }

func (r pointRows) Pass(m *svm.Linear, order []int) {
	label, buf := bitLabel(r.z, r.bit), make([]float64, len(m.W))
	for _, i := range order {
		m.StepFused(r.pts.Point(i, buf), label(i), m.Sched.Next())
	}
}

func (r pointRows) Hinge(m *svm.Linear, idx []int) float64 {
	label, buf := bitLabel(r.z, r.bit), make([]float64, len(m.W))
	var loss float64
	for _, i := range idx {
		if h := 1 - label(i)*m.Margin(r.pts.Point(i, buf)); h > 0 {
			loss += h
		}
	}
	return loss
}

// source is the reference visits' view of a shard: point k is read from row
// idx[k] of the dataset, never from the shard's gathered rows, so a visit
// that matches the reference also checks the gather.
type source struct{ *Shard }

func (s source) Point(i int, dst []float64) []float64 { return s.ds.Point(s.idx[i], dst) }

// trainOnPoints is the reference encoder visit: svm.AutoTune and one pass
// over Point copies of the shard's source rows.
func (e *encoderSub) trainOnPoints(sh *Shard, order []int) {
	rows := pointRows{source{sh}, sh.Z, e.bit}
	if !e.tuned {
		e.svm.AutoTune(rows)
		e.tuned = true
	}
	rows.Pass(e.svm, order)
}

// CodesPoints adapts packed codes to the sgd.Points interface with 0/1 float
// features: the dense view of the auxiliary coordinates that the reference
// decoder visit below multiplies its weights by.
type CodesPoints struct{ Z *retrieval.Codes }

// NumPoints returns the number of codes.
func (c CodesPoints) NumPoints() int { return c.Z.N }

// Point writes code i as a 0/1 float vector into dst: clear, then set only
// the positions of the set bits read word by word.
func (c CodesPoints) Point(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.Z.L)
	}
	for l := 0; l < c.Z.L; l++ {
		dst[l] = 0
	}
	for wi, w := range c.Z.Code(i) {
		base := wi * 64
		for w != 0 {
			dst[base+bits.TrailingZeros64(w)] = 1
			w &= w - 1
		}
	}
	return dst
}

func TestCodesPointsView(t *testing.T) {
	z := retrieval.NewCodes(2, 3)
	z.SetBit(1, 2, true)
	cp := CodesPoints{z}
	if cp.NumPoints() != 2 {
		t.Fatal("NumPoints wrong")
	}
	v := cp.Point(1, nil)
	if v[0] != 0 || v[1] != 0 || v[2] != 1 {
		t.Fatalf("Point = %v", v)
	}
}

// stepAt is the reference decoder update: per owned dimension, the
// prediction and the update walk w's column through At/Set, reading
// x[dims[j]] from a full point.
func (d *decoderSub) stepAt(z, x []float64, eta float64) {
	l := d.w.Rows
	for j, dim := range d.dims {
		pred := d.c[j]
		for row := 0; row < l; row++ {
			pred += z[row] * d.w.At(row, j)
		}
		err := pred - x[dim]
		for row := 0; row < l; row++ {
			d.w.Set(row, j, d.w.At(row, j)-eta*err*z[row])
		}
		d.c[j] -= eta * err
	}
}

// lossAt is the reference mean squared error over the sample idx.
func (d *decoderSub) lossAt(sh *Shard, idx []int) float64 {
	l := d.w.Rows
	z := make([]float64, l)
	xbuf := make([]float64, sh.ds.D)
	var total float64
	for _, i := range idx {
		CodesPoints{sh.Z}.Point(i, z)
		x := source{sh}.Point(i, xbuf)
		for j, dim := range d.dims {
			pred := d.c[j]
			for row := 0; row < l; row++ {
				pred += z[row] * d.w.At(row, j)
			}
			e := pred - x[dim]
			total += 0.5 * e * e
		}
	}
	if len(idx) == 0 {
		return 0
	}
	return total / float64(len(idx))
}

// trainOnPoints is the reference decoder visit: η0 calibration on the
// leading sample of order, then one pass, all through full Point copies of
// the shard's source rows, stepAt and lossAt.
func (d *decoderSub) trainOnPoints(sh *Shard, order []int) {
	z := make([]float64, d.w.Rows)
	xbuf := make([]float64, sh.ds.D)
	if n := sgd.TuningSampleSize(sh.NumPoints()); !d.tuned && n > 0 {
		sample := make([]int, n)
		copy(sample, order[:min(n, len(order))])
		d.eta = sgd.TuneEta0(1e-5, 4, 4, func(eta0 float64) float64 {
			trial := d.Clone().(*decoderSub)
			for _, i := range sample {
				CodesPoints{sh.Z}.Point(i, z)
				trial.stepAt(z, source{sh}.Point(i, xbuf), eta0)
			}
			return trial.lossAt(sh, sample)
		})
	}
	d.tuned = true
	for _, i := range order {
		CodesPoints{sh.Z}.Point(i, z)
		d.stepAt(z, source{sh}.Point(i, xbuf), d.eta)
	}
}

// bitsEqual reports whether two float slices agree bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// visitShard is a shard of n points on rows scattered over a dataset of
// 2n+3 (so row and shard index differ). Its L-bit codes are random except
// that the first 1000 points carry one bit each: SGD on those tolerates a
// larger η0 than on random codes, so a decoder that tuned on the leading
// points instead of a shuffled order's first 1000 would pick another η0.
func visitShard(n, d, l int, byteBacked bool, seed int64) *Shard {
	ds := dataset.GISTLike(2*n+3, d, 5, seed)
	if byteBacked {
		ds = dataset.SIFTLike(2*n+3, d, 5, seed)
	}
	idx := rand.New(rand.NewSource(seed + 1)).Perm(ds.N)[:n]
	z := randomCodes(n, l, seed+2)
	for i := 0; i < min(n, 1000); i++ {
		z.SetWord64(i, 1<<(i%l))
	}
	return &Shard{ds: ds, idx: idx, Z: z}
}

// TestParMACVisitMatchesReference: an encoder and a decoder visit that read
// the shard's gathered rows in place must leave W, b or c and η0 (with the
// encoder's schedule step count) bit for bit where the reference visits over
// Point copies of the dataset's rows leave them — on byte- and float-backed
// shards, with the visit order shuffled or not, from a tuned and an untuned
// start, over two consecutive visits. D = 22 leaves a tail past the
// encoder's four-wide kernels. The decoder group of 5 dimensions runs
// predict's four-wide block and its one-wide tail, the group of 13 the
// eight-wide block too. Of 3 000 points the tuning sample is the first third.
func TestParMACVisitMatchesReference(t *testing.T) {
	const n, d, l = 3000, 22, 6
	groups := [][]int{{1, 4, 9, 21, 16}, {20, 0, 2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 17}}
	for _, byteBacked := range []bool{false, true} {
		sh := visitShard(n, d, l, byteBacked, 41)
		for _, shuffle := range []bool{false, true} {
			for _, tuned := range []bool{false, true} {
				name := fmt.Sprintf("bytes=%v/shuffle=%v/tuned=%v", byteBacked, shuffle, tuned)
				rng := rand.New(rand.NewSource(42))
				enc := &encoderSub{bit: 3, svm: svm.NewLinear(d, 1e-4), tuned: tuned}
				for j := range enc.svm.W {
					enc.svm.W[j] = 0.1 * rng.NormFloat64()
				}
				var decs, decRefs []*decoderSub
				for k, dims := range groups {
					dec := newDecoderSub(l+k, l, dims)
					for j := range dec.w.Data {
						dec.w.Data[j] = rng.NormFloat64()
					}
					dec.tuned = tuned
					decs, decRefs = append(decs, dec), append(decRefs, dec.Clone().(*decoderSub))
				}
				encRef := enc.Clone().(*encoderSub)
				for visit := 0; visit < 2; visit++ {
					order := sgd.Order(n, shuffle, rng)
					enc.TrainOn(sh, order)
					encRef.trainOnPoints(sh, order)
					a, b := enc.svm, encRef.svm
					if !bitsEqual(a.W, b.W) || math.Float64bits(a.B) != math.Float64bits(b.B) ||
						a.Sched.Eta0 != b.Sched.Eta0 || a.Sched.Steps() != b.Sched.Steps() {
						t.Fatalf("%s visit %d: encoder differs from the reference", name, visit)
					}
					for k, dec := range decs {
						decRef := decRefs[k]
						dec.TrainOn(sh, order)
						decRef.trainOnPoints(sh, order)
						if !bitsEqual(dec.w.Data, decRef.w.Data) || !bitsEqual(dec.c, decRef.c) || dec.eta != decRef.eta {
							t.Fatalf("%s visit %d: decoder of %d dimensions differs from the reference", name, visit, len(dec.dims))
						}
					}
				}
			}
		}
	}
}

// TestShardRowsMatchSource: a shard gathers its scattered rows on its first
// read, and from then on Point (and, byte-backed, ByteRow) returns row idx[k]
// of the dataset bit for bit, with the dataset's own Dequant table. NumPoints
// must not gather.
func TestShardRowsMatchSource(t *testing.T) {
	const n, d = 500, 22
	for _, byteBacked := range []bool{false, true} {
		sh := visitShard(n, d, 4, byteBacked, 7)
		if sh.NumPoints() != n || sh.local != nil {
			t.Fatalf("bytes=%v: NumPoints = %d and gathered %v; want %d, not gathered", byteBacked, sh.NumPoints(), sh.local != nil, n)
		}
		for k, i := range sh.idx {
			if !bitsEqual(sh.Point(k, nil), sh.ds.Point(i, nil)) {
				t.Fatalf("bytes=%v: point %d differs from row %d", byteBacked, k, i)
			}
		}
		rows := sh.rows()
		if rows.N != n || rows.Dequant() != sh.ds.Dequant() {
			t.Fatalf("bytes=%v: gathered %d rows with table %p; want %d with the dataset's %p", byteBacked, rows.N, rows.Dequant(), n, sh.ds.Dequant())
		}
		if !byteBacked {
			continue
		}
		for k, i := range sh.idx {
			if string(rows.ByteRow(k)) != string(sh.ds.ByteRow(i)) {
				t.Fatalf("byte row %d differs from row %d", k, i)
			}
		}
	}
}

// TestZStepGathersOnce: a fresh shard whose first read is a Z step with four
// goroutines gathers its rows once (under -race, without a data race) and
// leaves the codes, change count, E_Q and E_BA of a one-goroutine Z step,
// bit for bit.
func TestZStepGathersOnce(t *testing.T) {
	ds := dataset.SIFTLike(1200, 16, 4, 5)
	shards := dataset.ShuffledShardIndices(ds.N, 2, nil, 6)
	var codes []*retrieval.Codes
	var sums [][3]float64
	for _, parallel := range []int{1, 4} {
		p := NewParMACProblem(ds, shards, ParMACConfig{L: 8, Seed: 5, Parallel: parallel})
		sh := p.shards[1]
		if sh.local != nil {
			t.Fatal("NewParMACProblem gathered the rows")
		}
		changed := p.ZStep(1, p.Submodels())
		eq, eba := sh.Objectives()
		codes = append(codes, sh.Z)
		sums = append(sums, [3]float64{float64(changed), eq, eba})
	}
	if !equalCodes(codes[0], codes[1]) {
		t.Fatal("Parallel 4: codes differ from Parallel 1")
	}
	for j, what := range []string{"changed", "E_Q", "E_BA"} {
		if math.Float64bits(sums[0][j]) != math.Float64bits(sums[1][j]) {
			t.Fatalf("Parallel 4: %s %v, Parallel 1 %v", what, sums[1][j], sums[0][j])
		}
	}
}

// FuzzDecoderStep pins the exactness argument on decoderSub.predict and
// decoderSub.step: for any code word of L ≤ 64 bits, g ≤ 16 owned
// dimensions, finite weights, c and x that are not −0, and finite η ≥ 0,
// predict writes the dense prediction c + Σ_l z_l·w_l summed in bit order,
// and one set-bit step leaves w and c bit for bit where the dense reference
// step (stepAt) leaves them, and neither holds a −0, whenever the
// reference's outputs are all finite. The seeds' g (1, 4, 6, 8, 12, 13 and
// 16) reach predict's blocks of eight, four and one alone and together.
func FuzzDecoderStep(f *testing.F) {
	f.Add(int64(1), uint64(0xb5), uint8(7), uint8(5), 1.0, 1.0, 0.01)
	f.Add(int64(2), uint64(0), uint8(63), uint8(15), 1e-300, 1e300, 1.0)
	f.Add(int64(3), ^uint64(0), uint8(63), uint8(0), 5e-324, 0.0, 0.4)
	f.Add(int64(4), uint64(0x8000000000000001), uint8(63), uint8(3), 1e3, -2.0, 1e-2)
	f.Add(int64(5), uint64(0xdeadbeef), uint8(31), uint8(7), 0.5, 3.0, 0.05)
	f.Add(int64(6), uint64(0x5a5a), uint8(15), uint8(11), 2.0, -1.0, 0.1)
	f.Add(int64(7), uint64(0x0ff0f00f), uint8(47), uint8(12), 1e-2, 10.0, 0.2)
	f.Fuzz(func(t *testing.T, seed int64, z uint64, lb, gb uint8, wScale, xScale, eta float64) {
		if !(eta >= 0) || math.IsInf(eta, 0) {
			return
		}
		l, g := 1+int(lb)%64, 1+int(gb)%16
		z &= math.MaxUint64 >> (64 - l)
		rng := rand.New(rand.NewSource(seed))
		draw := func(scale float64) float64 {
			v := scale * rng.NormFloat64()
			if v == 0 { // −0 becomes +0
				v = 0
			}
			return v
		}
		dims := make([]int, g)
		for j := range dims {
			dims[j] = j
		}
		dec := newDecoderSub(0, l, dims)
		for i := range dec.w.Data {
			dec.w.Data[i] = draw(wScale)
		}
		for j := range dec.c {
			dec.c[j] = draw(wScale)
		}
		x := make([]float64, g)
		for j := range x {
			x[j] = draw(xScale)
		}
		if !allFinite(dec.w.Data, dec.c, x) {
			return
		}
		ref := dec.Clone().(*decoderSub)
		codes := retrieval.NewCodes(1, l)
		codes.SetWord64(0, z)
		zf := CodesPoints{codes}.Point(0, nil)
		pred, refPred := make([]float64, g), make([]float64, g)
		dec.predict(z, pred)
		for j := range refPred {
			refPred[j] = dec.c[j]
			for row := 0; row < l; row++ {
				refPred[j] += zf[row] * dec.w.At(row, j)
			}
		}
		if allFinite(refPred) && !bitsEqual(pred, refPred) {
			t.Fatalf("L=%d g=%d z=%#x: set-bit prediction differs from the dense one", l, g, z)
		}
		ref.stepAt(zf, x, eta)
		dec.step(z, x, eta, pred)
		if !allFinite(ref.w.Data, ref.c) {
			return
		}
		if !bitsEqual(dec.w.Data, ref.w.Data) || !bitsEqual(dec.c, ref.c) {
			t.Fatalf("L=%d g=%d z=%#x η=%g: set-bit step differs from the dense reference", l, g, z, eta)
		}
		for _, vs := range [][]float64{dec.w.Data, dec.c} {
			for _, v := range vs {
				if v == 0 && math.Signbit(v) {
					t.Fatalf("L=%d g=%d z=%#x η=%g: step wrote −0", l, g, z, eta)
				}
			}
		}
	})
}

// allFinite reports whether every value of every slice is finite.
func allFinite(vs ...[]float64) bool {
	for _, v := range vs {
		for _, x := range v {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return false
			}
		}
	}
	return true
}

// BenchmarkParMACVisit times one W-step visit of a circulating submodel over
// train_wstep's shape: shard 0 of a 2-machine ShuffledShardIndices split of a
// 40 000-point, D=128 byte-backed set (so 20 000 points on rows scattered as
// in training) with L=16 tPCA codes, an encoder (one bit SVM) and decoder
// groups of g = 4, 8 and 11 of the 128 dimensions, dealt round-robin as
// NewParMACProblem deals them at L = 32, 16 and 12: the group widths of
// train_comm, train_wstep and train_zstep. "untuned" visits include the
// per-iteration η0 calibration (§8.1), "tuned" ones are the training pass
// alone. ns/pt is per shard point per visit. The shard is built, and its rows
// gathered by the warm-up visits, once for all sub-benchmarks.
func BenchmarkParMACVisit(b *testing.B) {
	const n, d, l = 20000, 128, 16
	ds := dataset.SIFTLike(2*n, d, 16, 1)
	idx := dataset.ShuffledShardIndices(2*n, 2, nil, 1)[0]
	z := retrieval.NewCodes(n, l)
	initZ, _ := pca.InitialCodes(ds, l, 2000, 1)
	for k, i := range idx {
		z.CopyCode(k, initZ, i)
	}
	sh := &Shard{ds: ds, idx: idx, Z: z}
	order := sgd.Order(n, false, nil)
	// Warm every submodel by one visit, so weights are off zero.
	enc := &encoderSub{svm: svm.NewLinear(d, 1e-5)}
	enc.TrainOn(sh, order)
	type visit struct {
		name  string
		visit func(tuned bool) func()
	}
	visits := []visit{
		{"encoder", func(tuned bool) func() {
			e := enc.Clone().(*encoderSub)
			return func() { e.tuned = tuned; e.TrainOn(sh, order) }
		}},
	}
	for _, stride := range []int{32, 16, 12} {
		var dims []int
		for j := 0; j < d; j += stride {
			dims = append(dims, j)
		}
		dec := newDecoderSub(l, l, dims)
		dec.TrainOn(sh, order)
		visits = append(visits, visit{fmt.Sprintf("decoder/g=%d", len(dims)), func(tuned bool) func() {
			dd := dec.Clone().(*decoderSub)
			return func() { dd.tuned = tuned; dd.TrainOn(sh, order) }
		}})
	}
	for _, v := range visits {
		for _, tuned := range []bool{false, true} {
			name := v.name + "/untuned"
			if tuned {
				name = v.name + "/tuned"
			}
			b.Run(name, func(b *testing.B) {
				visit := v.visit(tuned)
				b.ResetTimer()
				for range b.N {
					visit()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pt")
			})
		}
	}
}
