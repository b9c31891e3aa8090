package dmcs

import (
	"testing"

	"dmcs/internal/graph"
)

// whaleGraph is the whale-component fixture: ONE connected
// expander-style component of n nodes (ring for connectivity plus two
// affine chord families, degree ~6). Unlike the ring+chord small-query
// fixture, whose BFS layers stay a few dozen nodes wide, the affine
// chords make frontiers grow multiplicatively — layers reach thousands
// of nodes within a few hops, so whole-layer removal and the Θ-heap
// dominate the peel.
func whaleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(graph.Node(u), graph.Node((u+1)%n))
		b.AddEdge(graph.Node(u), graph.Node((7*u+3)%n))
		b.AddEdge(graph.Node(u), graph.Node((131*u+17)%n))
	}
	return b.Build()
}

// whaleNodes holds a full peel to a few milliseconds, so the CI smoke
// run stays cheap.
const whaleNodes = 16384

// benchWhale measures one full community search on the whale component.
// Query node rotates so no per-node pathology dominates; the arena pool
// keeps steady-state allocation out of the measurement, same as the
// small-query suite.
func benchWhale(b *testing.B, opts Options) {
	b.Helper()
	csr := graph.NewCSR(whaleGraph(whaleNodes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := []graph.Node{graph.Node((i * 977) % whaleNodes)}
		if _, err := SearchCSR(csr, q, VariantFPA, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhaleFPAPruningSerial is the headline whale workload:
// Section 5.7 layer pruning on a 16k-node component.
func BenchmarkWhaleFPAPruningSerial(b *testing.B) {
	benchWhale(b, Options{LayerPruning: true})
}

// BenchmarkWhaleFPASerial is the non-pruned peel, where the Θ-heap
// drain of every layer dominates.
func BenchmarkWhaleFPASerial(b *testing.B) {
	benchWhale(b, Options{})
}
