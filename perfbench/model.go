package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// model is the benchmark's own copy of the graph, kept apart from the
// program under test: it is built from the same edge-list bytes the
// program parses, it receives the same write batches, and every answer
// and every final state is checked against it. It shares no code with
// the program: parsing, adjacency, components, versions and density
// modularity are all recomputed here.
type model struct {
	adj   [][]int32 // sorted neighbour lists
	edges int

	// epoch counts effective batches applied. wHist[e] is the total edge
	// weight after epoch e, and ver[u] is the epoch at which u's
	// component last changed: the engine freezes w_G per component at
	// that epoch, so an answer is scored with wHist[ver[u]].
	epoch uint64
	wHist []float64
	ver   []uint64

	mark  []uint32 // mark[u] == stamp: u is in the current set
	seen  []uint32 // seen[u] == stamp: u was reached by the current walk
	stamp uint32
	queue []int32
}

// op is one edge mutation as both the model and the engine receive it.
type op struct {
	del  bool
	u, v int32
}

// parseModel builds a model from "u v" lines of decimal node ids, the
// format the generators write. Self-loops are skipped and repeated
// edges kept once.
func parseModel(edgeList []byte) (*model, error) {
	var pairs [][2]int32
	n := 0
	for lineNo, line := range bytes.Split(edgeList, []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("model: line %d: want 2 fields, got %d", lineNo+1, len(f))
		}
		u, err1 := strconv.ParseInt(string(f[0]), 10, 32)
		v, err2 := strconv.ParseInt(string(f[1]), 10, 32)
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, fmt.Errorf("model: line %d: bad node ids %q", lineNo+1, line)
		}
		n = max(n, int(u)+1, int(v)+1)
		if u != v {
			pairs = append(pairs, [2]int32{int32(u), int32(v)})
		}
	}
	m := &model{adj: make([][]int32, n)}
	for _, p := range pairs {
		m.adj[p[0]] = append(m.adj[p[0]], p[1])
		m.adj[p[1]] = append(m.adj[p[1]], p[0])
	}
	for u, a := range m.adj {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		k := 0
		for i, w := range a {
			if i == 0 || w != a[i-1] {
				a[k] = w
				k++
			}
		}
		m.adj[u] = a[:k]
		m.edges += k
	}
	m.edges /= 2
	m.wHist = []float64{float64(m.edges)}
	m.ver = make([]uint64, n)
	m.mark = make([]uint32, n)
	m.seen = make([]uint32, n)
	return m, nil
}

// clone returns an independent copy of m.
func (m *model) clone() *model {
	c := &model{edges: m.edges, epoch: m.epoch, stamp: m.stamp}
	c.adj = make([][]int32, len(m.adj))
	for i, a := range m.adj {
		c.adj[i] = append([]int32(nil), a...)
	}
	c.wHist = append([]float64(nil), m.wHist...)
	c.ver = append([]uint64(nil), m.ver...)
	c.mark = append([]uint32(nil), m.mark...)
	c.seen = append([]uint32(nil), m.seen...)
	return c
}

func (m *model) numNodes() int { return len(m.adj) }

func (m *model) hasEdge(u, v int32) bool {
	a := m.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

func insertSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

func deleteSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return append(a[:i], a[i+1:]...)
}

// apply applies one batch as one epoch. Every op must be effective
// (an insert of an absent edge, a removal of a present one, no edge
// twice), which is how the generators build batches; anything else is a
// fault of the benchmark itself and is reported as such.
func (m *model) apply(ops []op) error {
	for i, o := range ops {
		if o.u == o.v || int(o.u) >= len(m.adj) || int(o.v) >= len(m.adj) {
			return fmt.Errorf("model: op %d (%d,%d) is not an edge of the model's node set", i, o.u, o.v)
		}
		if m.hasEdge(o.u, o.v) != o.del {
			return fmt.Errorf("model: op %d (del=%v %d,%d) would not change the graph", i, o.del, o.u, o.v)
		}
		if o.del {
			m.adj[o.u] = deleteSorted(m.adj[o.u], o.v)
			m.adj[o.v] = deleteSorted(m.adj[o.v], o.u)
			m.edges--
		} else {
			m.adj[o.u] = insertSorted(m.adj[o.u], o.v)
			m.adj[o.v] = insertSorted(m.adj[o.v], o.u)
			m.edges++
		}
	}
	m.epoch++
	m.wHist = append(m.wHist, float64(m.edges))
	// Every component holding an endpoint of a changed edge is new at
	// this epoch; after a split both halves hold one endpoint, after a
	// merge the merged component holds both.
	m.nextStamp()
	for _, o := range ops {
		for _, s := range [2]int32{o.u, o.v} {
			if m.seen[s] == m.stamp {
				continue
			}
			for _, u := range m.walk(s, nil) {
				m.ver[u] = m.epoch
			}
		}
	}
	return nil
}

func (m *model) nextStamp() {
	m.stamp++
	if m.stamp == 0 {
		clear(m.mark)
		clear(m.seen)
		m.stamp = 1
	}
}

// walk returns the nodes reachable from s (a reused buffer), restricted
// to nodes u with within[u] == stamp unless within is nil. Reached nodes
// are tagged seen under the current stamp.
func (m *model) walk(s int32, within []uint32) []int32 {
	q := append(m.queue[:0], s)
	m.seen[s] = m.stamp
	for head := 0; head < len(q); head++ {
		for _, w := range m.adj[q[head]] {
			if m.seen[w] == m.stamp || (within != nil && within[w] != m.stamp) {
				continue
			}
			m.seen[w] = m.stamp
			q = append(q, w)
		}
	}
	m.queue = q
	return q
}

// components counts connected components over every node.
func (m *model) components() int {
	m.nextStamp()
	c := 0
	for u := range m.adj {
		if m.seen[u] != m.stamp {
			m.walk(int32(u), nil)
			c++
		}
	}
	return c
}

// dm is density modularity (w_C − d_C²/(4 w_G)) / |C| of the node set c
// against total weight wG, recomputed from the model's adjacency.
func (m *model) dm(c []int32, wG float64) float64 {
	m.nextStamp()
	for _, u := range c {
		m.mark[u] = m.stamp
	}
	var inside, deg int
	for _, u := range c {
		deg += len(m.adj[u])
		for _, w := range m.adj[u] {
			if m.mark[w] == m.stamp {
				inside++
			}
		}
	}
	wC, dC, n := float64(inside/2), float64(deg), float64(len(c))
	return (wC - dC*dC/(4*wG)) / n
}

// answer is one community returned by the program, in node ids.
type answer struct {
	query     []int32
	community []int32
	score     float64
	version   uint64 // the component version the program answered at
}

// checkAnswer verifies one answer against the model at the current
// epoch: the community is a sorted set of known nodes that contains
// every query node, is connected in the model, was answered at the
// version the model assigns its component, and scores exactly its
// density modularity under the w_G frozen at that version.
func (m *model) checkAnswer(a answer) error {
	c := a.community
	if len(c) == 0 {
		return fmt.Errorf("empty community for query %v", a.query)
	}
	for i, u := range c {
		if u < 0 || int(u) >= len(m.adj) {
			return fmt.Errorf("community node %d out of range", u)
		}
		if i > 0 && u <= c[i-1] {
			return fmt.Errorf("community not strictly sorted at %d", i)
		}
	}
	for _, q := range a.query {
		i := sort.Search(len(c), func(i int) bool { return c[i] >= q })
		if i == len(c) || c[i] != q {
			return fmt.Errorf("community of %d nodes misses query node %d", len(c), q)
		}
	}
	ver := m.ver[a.query[0]]
	if a.version != ver {
		return fmt.Errorf("query %v answered at component version %d, model says %d", a.query, a.version, ver)
	}
	m.nextStamp()
	for _, u := range c {
		m.mark[u] = m.stamp
	}
	if got := len(m.walk(c[0], m.mark)); got != len(c) {
		return fmt.Errorf("community of %d nodes is not connected (%d reachable)", len(c), got)
	}
	want := m.dm(c, m.wHist[ver])
	if !sameScore(a.score, want) {
		return fmt.Errorf("query %v: score %.17g, density modularity recomputes to %.17g", a.query, a.score, want)
	}
	return nil
}

// sameScore allows only rounding-level differences: the program sums in
// its own order, and the model recomputes from scratch.
func sameScore(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

// f1 is the F1 score of found against the ground-truth set truth.
func f1(found, truth []int32) float64 {
	in := make(map[int32]struct{}, len(truth))
	for _, u := range truth {
		in[u] = struct{}{}
	}
	hit := 0
	for _, u := range found {
		if _, ok := in[u]; ok {
			hit++
		}
	}
	if hit == 0 {
		return 0
	}
	p := float64(hit) / float64(len(found))
	r := float64(hit) / float64(len(truth))
	return 2 * p * r / (p + r)
}

// edgeSet lists the model's edges as (u<v) pairs in ascending order.
func (m *model) edgeSet() [][2]int32 {
	out := make([][2]int32, 0, m.edges)
	for u, a := range m.adj {
		for _, v := range a {
			if int32(u) < v {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}
