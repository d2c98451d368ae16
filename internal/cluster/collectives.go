package cluster

// Collective computation operations from the paper's appendix B
// (MPI_Reduce / MPI_Allreduce), specialised to float64 vectors: the shape
// an aggregation of partial sums or gradients across machines takes. The
// conformance suite exercises them over every transport.

// ReduceOp combines two values elementwise in place: dst[i] = op(dst[i], src[i]).
type ReduceOp func(dst, src []float64)

// OpSum adds src into dst elementwise.
func OpSum(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// OpMax keeps the elementwise maximum in dst.
func OpMax(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Reduce combines every rank's contribution at root with op and returns the
// result there (nil elsewhere), mirroring MPI_Reduce. All ranks must call it
// with equal-length vectors.
func (c *Comm) Reduce(root, tag int, contrib []float64, op ReduceOp) []float64 {
	if c.Rank() != root {
		c.Send(root, tag, contrib, 8*len(contrib))
		return nil
	}
	acc := make([]float64, len(contrib))
	copy(acc, contrib)
	for i := 0; i < c.Size()-1; i++ {
		m := c.Recv(tag)
		src := m.Payload.([]float64)
		if len(src) != len(acc) {
			panic("cluster: Reduce length mismatch")
		}
		op(acc, src)
	}
	return acc
}

// AllReduce is Reduce followed by a broadcast of the result to every rank
// (MPI_Allreduce). Rank 0 acts as the implicit root.
func (c *Comm) AllReduce(tag int, contrib []float64, op ReduceOp) []float64 {
	res := c.Reduce(0, tag, contrib, op)
	out := c.Bcast(0, tag, res, 8*len(contrib))
	return out.([]float64)
}
