// Package dataset provides the benchmark data substrate for the ParMAC
// reproduction. The paper evaluates on CIFAR (GIST-320), SIFT-10K, SIFT-1M
// and SIFT-1B image-feature sets; those are proprietary-scale downloads we do
// not ship, so this package generates seeded synthetic analogues with the
// same statistical properties that matter to the experiments: clustered,
// redundant, high-dimensional real vectors, optionally stored byte-quantised
// exactly like the SIFT-1B handling described in §8.4.
//
// It also implements the data-distribution mechanics ParMAC needs:
// contiguous and weighted sharding for load balancing (§4.3) and streaming
// sources that add and remove points over time.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Dataset is a set of N points in R^D. Features are stored either as float64
// or byte-quantised (one byte per feature, as the paper stores SIFT-1B).
// Byte-backed datasets keep only their bytes: a stored byte is dequantised
// by one lookup in a 256-entry table, and the W-step kernels read ByteRow in
// place through that table, converting each feature only where it is used —
// the paper's "convert each feature only as needed" strategy (§8.4).
type Dataset struct {
	N, D int

	x     *vec.Matrix // float storage; nil when byte-backed
	bytes []uint8     // byte storage; nil when float-backed
	// deq maps a stored byte b to lo + ((hi-lo)/255)·b; nil when
	// float-backed.
	deq *[256]float64
}

// FromMatrix wraps an N×D float matrix (not copied).
func FromMatrix(x *vec.Matrix) *Dataset {
	return &Dataset{N: x.Rows, D: x.Cols, x: x}
}

// FromBytes wraps byte-quantised storage with the given dequantisation range.
func FromBytes(n, d int, b []uint8, lo, hi float64) *Dataset {
	if len(b) != n*d {
		panic(fmt.Sprintf("dataset: FromBytes needs %d bytes, got %d", n*d, len(b)))
	}
	deq := new([256]float64)
	scale := (hi - lo) / 255
	for v := range deq {
		deq[v] = lo + scale*float64(v)
	}
	return &Dataset{N: n, D: d, bytes: b, deq: deq}
}

// Dequant returns the table a byte-backed dataset dequantises through —
// feature j of point i is Dequant()[ByteRow(i)[j]] — or nil when the dataset
// is float-backed. It is the one storage test a caller reading rows in place
// makes.
func (ds *Dataset) Dequant() *[256]float64 { return ds.deq }

// ByteRow returns the stored bytes of point i of a byte-backed dataset,
// aliasing the storage; the caller must not modify them.
func (ds *Dataset) ByteRow(i int) []uint8 { return ds.bytes[i*ds.D : (i+1)*ds.D] }

// NumPoints returns N; together with Point it satisfies the sample-access
// interface the SGD trainers consume.
func (ds *Dataset) NumPoints() int { return ds.N }

// Point writes point i into dst (allocated when nil) and returns it,
// dequantising a byte-backed row through the Dequant table. For float-backed
// datasets with dst == nil, the returned slice aliases the underlying storage
// and must not be modified.
func (ds *Dataset) Point(i int, dst []float64) []float64 {
	if ds.x != nil {
		row := ds.x.Row(i)
		if dst == nil {
			return row
		}
		copy(dst, row)
		return dst
	}
	if dst == nil {
		dst = make([]float64, ds.D)
	}
	deq := ds.deq
	for j, b := range ds.ByteRow(i) {
		dst[j] = deq[b]
	}
	return dst
}

// Matrix materialises the dataset as a float matrix (a copy for byte-backed
// data, the underlying matrix otherwise).
func (ds *Dataset) Matrix() *vec.Matrix {
	if ds.x != nil {
		return ds.x
	}
	m := vec.NewMatrix(ds.N, ds.D)
	for i := 0; i < ds.N; i++ {
		ds.Point(i, m.Row(i))
	}
	return m
}

// Quantize returns a byte-backed copy of ds using the dataset's min/max range.
func (ds *Dataset) Quantize() *Dataset {
	m := ds.Matrix()
	lo, hi := m.Data[0], m.Data[0]
	for _, v := range m.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	return ds.QuantizeRange(lo, hi)
}

// QuantizeRange returns a byte-backed copy with a caller-fixed range, so
// different datasets (e.g. a base set and its queries) share one consistent
// quantisation grid. Values outside [lo, hi] saturate.
func (ds *Dataset) QuantizeRange(lo, hi float64) *Dataset {
	if hi <= lo {
		panic("dataset: QuantizeRange needs hi > lo")
	}
	m := ds.Matrix()
	b := make([]uint8, ds.N*ds.D)
	scale := 255 / (hi - lo)
	for i, v := range m.Data {
		q := (v - lo) * scale
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		b[i] = uint8(q + 0.5)
	}
	return FromBytes(ds.N, ds.D, b, lo, hi)
}

// Subset returns a new dataset holding copies of the given rows, in the
// order listed, in the source's storage: a byte-backed subset keeps the bytes
// and shares the source's Dequant table, a float-backed one copies the
// floats. Point, ByteRow and Matrix read the same values from it as from the
// source.
func (ds *Dataset) Subset(idx []int) *Dataset {
	if ds.deq != nil {
		b := make([]uint8, 0, len(idx)*ds.D)
		for _, i := range idx {
			b = append(b, ds.ByteRow(i)...)
		}
		return &Dataset{N: len(idx), D: ds.D, bytes: b, deq: ds.deq}
	}
	m := vec.NewMatrix(len(idx), ds.D)
	for k, i := range idx {
		ds.Point(i, m.Row(k))
	}
	return FromMatrix(m)
}

// ClusterConfig parameterises the synthetic Gaussian-mixture generator.
type ClusterConfig struct {
	N, D     int     // points and dimensionality
	Clusters int     // mixture components; >= 1
	Spread   float64 // within-cluster standard deviation
	Radius   float64 // standard deviation of cluster centres
	Seed     int64
}

// Clusters draws N points from a Gaussian mixture with randomly placed
// centres. It returns the dataset and the component assignment of each point.
// The mixture gives the data the neighbourhood structure that makes binary
// hashing measurable (near points should receive near codes) and the
// redundance the paper relies on for "few epochs suffice" (§8.2).
func Clusters(cfg ClusterConfig) (*Dataset, []int) {
	if cfg.Clusters < 1 {
		cfg.Clusters = 1
	}
	if cfg.Spread <= 0 {
		cfg.Spread = 0.3
	}
	if cfg.Radius <= 0 {
		cfg.Radius = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centres := vec.NewMatrix(cfg.Clusters, cfg.D)
	centres.FillGaussian(rng, cfg.Radius)
	x := vec.NewMatrix(cfg.N, cfg.D)
	labels := make([]int, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c := rng.Intn(cfg.Clusters)
		labels[i] = c
		row := x.Row(i)
		centre := centres.Row(c)
		for j := 0; j < cfg.D; j++ {
			row[j] = centre[j] + rng.NormFloat64()*cfg.Spread
		}
	}
	return FromMatrix(x), labels
}

// SIFTLike generates a byte-quantised dataset mimicking SIFT descriptors:
// clustered, non-negative, stored one byte per feature.
func SIFTLike(n, d int, clusters int, seed int64) *Dataset {
	ds, _ := Clusters(ClusterConfig{N: n, D: d, Clusters: clusters, Spread: 0.25, Radius: 1, Seed: seed})
	return ds.Quantize()
}

// GISTLike generates a float dataset mimicking GIST features (CIFAR in the
// paper): clustered real vectors.
func GISTLike(n, d int, clusters int, seed int64) *Dataset {
	ds, _ := Clusters(ClusterConfig{N: n, D: d, Clusters: clusters, Spread: 0.35, Radius: 1, Seed: seed})
	return ds
}

// ManifoldConfig parameterises the nonlinear-manifold generator.
type ManifoldConfig struct {
	N, D   int
	Latent int // intrinsic dimensionality (default 3)
	Seed   int64
}

// manifoldNoise is the standard deviation of the Gaussian noise Manifold adds
// to every feature.
const manifoldNoise = 0.05

// Manifold draws points from a smooth low-dimensional manifold embedded by
// random sinusoids, x_j = sin(f_j·u + φ_j) + ε. Real image descriptors
// (GIST/SIFT) concentrate near such manifolds, and this generator reproduces
// the regime where learned binary autoencoders match or beat the PCA-based
// hashes — the comparison regime of the paper's Fig. 12.
func Manifold(cfg ManifoldConfig) *Dataset {
	if cfg.Latent <= 0 {
		cfg.Latent = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	freqs := vec.NewMatrix(cfg.D, cfg.Latent)
	freqs.FillGaussian(rng, 1.2)
	phase := make([]float64, cfg.D)
	for j := range phase {
		phase[j] = rng.Float64() * 2 * math.Pi
	}
	x := vec.NewMatrix(cfg.N, cfg.D)
	u := make([]float64, cfg.Latent)
	for i := 0; i < cfg.N; i++ {
		for k := range u {
			u[k] = rng.NormFloat64()
		}
		for j := 0; j < cfg.D; j++ {
			x.Set(i, j, math.Sin(vec.Dot(freqs.Row(j), u)+phase[j])+rng.NormFloat64()*manifoldNoise)
		}
	}
	return FromMatrix(x)
}

// ManifoldWithQueries draws a base set and queries from one manifold.
func ManifoldWithQueries(n, q, d, latent int, seed int64) (base, queries *Dataset) {
	all := Manifold(ManifoldConfig{N: n + q, D: d, Latent: latent, Seed: seed})
	baseIdx := make([]int, n)
	queryIdx := make([]int, q)
	for i := range baseIdx {
		baseIdx[i] = i
	}
	for i := range queryIdx {
		queryIdx[i] = n + i
	}
	return all.Subset(baseIdx), all.Subset(queryIdx)
}

// WithQueries draws base and query sets from one mixture (same cluster
// centres), the correct protocol for retrieval benchmarks: queries must come
// from the distribution of the indexed data. Both sets are stored one byte
// per feature on a shared grid (the SIFT storage convention, §8.4).
func WithQueries(n, q, d, clusters int, seed int64) (base, queries *Dataset) {
	all, _ := Clusters(ClusterConfig{N: n + q, D: d, Clusters: clusters, Spread: 0.25, Radius: 1, Seed: seed})
	baseIdx := make([]int, n)
	queryIdx := make([]int, q)
	for i := range baseIdx {
		baseIdx[i] = i
	}
	for i := range queryIdx {
		queryIdx[i] = n + i
	}
	m := all.Matrix()
	lo, hi := m.Data[0], m.Data[0]
	for _, v := range m.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	return all.Subset(baseIdx).QuantizeRange(lo, hi), all.Subset(queryIdx).QuantizeRange(lo, hi)
}
