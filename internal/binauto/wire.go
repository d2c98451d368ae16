package binauto

import (
	"repro/internal/cluster"
	"repro/internal/sgd"
	"repro/internal/svm"
	"repro/internal/vec"
)

// Wire encoding of the BA's circulating submodels, used when ParMAC runs
// across OS processes (cluster/tcp): instead of passing pointers, the fabric
// encodes tokens in the cluster wire codec, and the submodels inside them
// nest as payloads of the kinds below. The encoding must carry the full
// training state — parameters AND optimiser state (an encoder's SGD schedule
// position, a decoder's tuned step size, the per-iteration auto-tune flag) —
// so a submodel resumes on the next machine exactly where it left off,
// byte-for-byte equal to the in-process run. Changing a layout breaks the
// byte-exact golden tests in serialize_test.go, which is the point.

// Wire kinds (cluster reserves 32–47 for binauto).
const (
	wireEncoderSub uint16 = 32 + iota
	wireDecoderSub
)

// AppendWire appends the submodel's wire body: ID, Bit, W, B, Lambda, Eta0,
// SchedLambda, Steps, Tuned.
func (e *encoderSub) AppendWire(b []byte) []byte {
	b = cluster.AppendInt(b, e.id)
	b = cluster.AppendInt(b, e.bit)
	b = cluster.AppendFloat64s(b, e.svm.W)
	b = cluster.AppendFloat64(b, e.svm.B)
	b = cluster.AppendFloat64(b, e.svm.Lambda)
	b = cluster.AppendFloat64(b, e.svm.Sched.Eta0)
	b = cluster.AppendFloat64(b, e.svm.Sched.Lambda)
	b = cluster.AppendFloat64(b, e.svm.Sched.Steps())
	return cluster.AppendBool(b, e.tuned)
}

func decodeEncoderSub(r *cluster.WireReader) any {
	id, bit, w := r.Int(), r.Int(), r.Float64s()
	b, lambda := r.Float64(), r.Float64()
	eta0, schedLambda, steps := r.Float64(), r.Float64(), r.Float64()
	tuned := r.Bool()
	if !(eta0 > 0) {
		r.Failf("binauto: encoder submodel %d has invalid schedule eta0 %v", id, eta0)
		return nil
	}
	lin := &svm.Linear{W: w, B: b, Lambda: lambda, Sched: sgd.NewSchedule(eta0, schedLambda)}
	lin.Sched.SetSteps(steps)
	return &encoderSub{id: id, bit: bit, svm: lin, tuned: tuned}
}

// AppendWire appends the submodel's wire body: ID, Dims, L (rows of the
// weight matrix), W, C, Eta, Tuned.
func (d *decoderSub) AppendWire(b []byte) []byte {
	b = cluster.AppendInt(b, d.id)
	b = cluster.AppendInts(b, d.dims)
	b = cluster.AppendInt(b, d.w.Rows)
	b = cluster.AppendFloat64s(b, d.w.Data)
	b = cluster.AppendFloat64s(b, d.c)
	b = cluster.AppendFloat64(b, d.eta)
	return cluster.AppendBool(b, d.tuned)
}

func decodeDecoderSub(r *cluster.WireReader) any {
	id, dims, l := r.Int(), r.Ints(), r.Int()
	w, c, eta, tuned := r.Float64s(), r.Float64s(), r.Float64(), r.Bool()
	// len(w) == l·len(dims), checked by division so a huge l cannot wrap.
	shaped := len(dims) == 0 && len(w) == 0 || len(dims) > 0 && len(w)%len(dims) == 0 && len(w)/len(dims) == l
	if l <= 0 || !shaped || len(c) != len(dims) {
		r.Failf("binauto: decoder submodel %d has inconsistent shape (L=%d dims=%d w=%d c=%d)",
			id, l, len(dims), len(w), len(c))
		return nil
	}
	if !(eta > 0) {
		r.Failf("binauto: decoder submodel %d has invalid step size %v", id, eta)
		return nil
	}
	return &decoderSub{
		id: id, dims: dims,
		w: &vec.Matrix{Rows: l, Cols: len(dims), Data: w},
		c: c, eta: eta, tuned: tuned,
	}
}

func init() {
	cluster.RegisterWire(wireEncoderSub, &encoderSub{}, decodeEncoderSub)
	cluster.RegisterWire(wireDecoderSub, &decoderSub{}, decodeDecoderSub)
}
