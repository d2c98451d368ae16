// Package atomicfield is the parmac-vet fixture for the atomicfield
// analyzer: a struct field is a typed atomic, never a plain field passed to
// sync/atomic by address.
package atomicfield

import "sync/atomic"

type stats struct {
	hits  int64        // pre-fix: a plain field under address-based atomics
	typed atomic.Int64 // the sanctioned rewrite
}

func (s *stats) bump() {
	atomic.AddInt64(&s.hits, 1) // want `sync/atomic call on the address of field s.hits`
	s.typed.Add(1)
}

// slots are slice elements, not fields: address-based atomics stay legal.
func slots(seen []int32, i int) {
	atomic.AddInt32(&seen[i], 1)
}
