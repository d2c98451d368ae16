// Package wirecodec is the parmac-vet fixture for the wirecodec analyzer:
// every locally declared type passed to cluster.RegisterWire must be
// referenced by a golden-file test in the same package.
package wirecodec

import "repro/internal/cluster"

// Covered is referenced by the golden test in wire_test.go.
type Covered struct{ A int }

func (c Covered) AppendWire(b []byte) []byte { return cluster.AppendInt(b, c.A) }

// Uncovered has no golden test pinning its byte format.
type Uncovered struct{ B int }

func (u *Uncovered) AppendWire(b []byte) []byte { return cluster.AppendInt(b, u.B) }

func init() {
	cluster.RegisterWire(2000, Covered{}, func(r *cluster.WireReader) any { return Covered{A: r.Int()} })
	cluster.RegisterWire(2001, &Uncovered{}, func(r *cluster.WireReader) any { return &Uncovered{B: r.Int()} }) // want `wire type Uncovered is registered with cluster.RegisterWire but no golden-file test references it`
}
