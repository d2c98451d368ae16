package macnet

import "repro/internal/cluster"

// Wire encoding of the deep net's circulating submodels (one unit's weight
// vector each), mirroring binauto/wire.go: the TCP fabric encodes tokens in
// the cluster wire codec, so unit submodels carry their complete state —
// weights plus the fixed step size — across process boundaries.

// wireUnitSub is unitSub's wire kind (cluster reserves 48–63 for macnet).
const wireUnitSub uint16 = 48

// AppendWire appends the submodel's wire body: ID, Ref.Layer, Ref.Unit, W,
// K, Eta.
func (u *unitSub) AppendWire(b []byte) []byte {
	b = cluster.AppendInt(b, u.id)
	b = cluster.AppendInt(b, u.ref.Layer)
	b = cluster.AppendInt(b, u.ref.Unit)
	b = cluster.AppendFloat64s(b, u.w)
	b = cluster.AppendInt(b, u.k)
	return cluster.AppendFloat64(b, u.eta)
}

func decodeUnitSub(r *cluster.WireReader) any {
	u := &unitSub{id: r.Int(), ref: UnitRef{Layer: r.Int(), Unit: r.Int()},
		w: r.Float64s(), k: r.Int(), eta: r.Float64()}
	if len(u.w) == 0 {
		r.Failf("macnet: unit submodel %d has no weights", u.id)
		return nil
	}
	return u
}

func init() {
	cluster.RegisterWire(wireUnitSub, &unitSub{}, decodeUnitSub)
}
