package tcp

import (
	"testing"

	"repro/internal/binauto"
	"repro/internal/core"
	"repro/internal/dataset"
)

// BenchmarkTokenHop ping-pongs a *core.Token carrying a real binauto encoder
// submodel — D = 128, train_comm's ≈1 KB of parameters — between the two
// ranks of a loopback fabric: every hop is encode, rank → hub → rank over
// sockets, and decode. One op is a round trip (two hops); us/hop is the
// one-way time, the §5 constant t_c^W of this transport.
func BenchmarkTokenHop(b *testing.B) {
	const tag = 1
	ds := dataset.SIFTLike(200, 128, 8, 1)
	prob := binauto.NewParMACProblem(ds, dataset.ShuffledShardIndices(ds.N, 2, nil, 1),
		binauto.ParMACConfig{L: 8, Seed: 1})
	sm := prob.Submodels()[0]
	fab, err := NewLoopbackFabric(2)
	if err != nil {
		b.Fatal(err)
	}
	defer fab.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := fab.Comm(1)
		for i := 0; i < b.N; i++ {
			m := c.Recv(tag)
			c.Send(0, tag, m.Payload, sm.Bytes())
		}
	}()
	c := fab.Comm(0)
	var tok any = &core.Token{SM: sm, Route: []int{0, 1}, Train: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(1, tag, tok, sm.Bytes())
		tok = c.Recv(tag).Payload
	}
	b.StopTimer()
	<-done
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(2*b.N), "us/hop")
}
