package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"dmcs/internal/graph"
	"dmcs/internal/lfr"
	"dmcs/internal/queries"
)

// Input sizes. An lfr-batch run evaluates lfrGraphs LFR graphs of the
// paper's Table 2 shape (lfr.Default: d_avg 20, d_max 300, μ 0.2,
// communities of 20–1000 nodes) at lfrNodes nodes: at this size one
// graph's community structure moves its query cost by ±10%, and several
// graphs per run average that out. The forest is forestParts small LFR graphs plus one whale LFR
// graph, each its own connected component.
const (
	lfrNodes       = 20000
	lfrGraphs      = 6
	lfrSetsPerFile = 32

	forestParts    = 128
	forestPartSize = 96
	whaleSize      = 4096
)

// graphInput is one generated graph as the program receives it (edge-list
// bytes) plus what the benchmark knows about it. Node ids are assigned in
// order of first appearance in the edge list, so ParseEdgeList's ids equal
// the labels written.
type graphInput struct {
	edgeList []byte
	truth    [][]int32 // ground-truth communities
	commOf   []int32   // node -> ground-truth community
	parts    [][]int32 // generated components (forest only); the last is the whale
}

// part is one generated graph before the parts are combined.
type part struct {
	g     *graph.Graph
	comms [][]graph.Node
}

// assemble combines parts into one shuffled edge list and relabels
// nodes by first appearance. It returns the input and the map from
// (part, local node) to the final id.
func assemble(parts []part, rng *rand.Rand) (*graphInput, [][]int32) {
	type edge struct{ p, u, v int32 }
	var edges []edge
	for pi, p := range parts {
		p.g.Edges(func(u, v graph.Node) bool {
			edges = append(edges, edge{int32(pi), u, v})
			return true
		})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	ids := make([][]int32, len(parts))
	for pi, p := range parts {
		ids[pi] = make([]int32, p.g.NumNodes())
		for i := range ids[pi] {
			ids[pi][i] = -1
		}
	}
	next := int32(0)
	idOf := func(p, u int32) int32 {
		if ids[p][u] < 0 {
			ids[p][u] = next
			next++
		}
		return ids[p][u]
	}
	var buf bytes.Buffer
	buf.Grow(len(edges) * 12)
	var line []byte
	for _, e := range edges {
		u, v := idOf(e.p, e.u), idOf(e.p, e.v)
		line = strconv.AppendInt(line[:0], int64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(v), 10)
		line = append(line, '\n')
		buf.Write(line)
	}

	in := &graphInput{edgeList: buf.Bytes(), commOf: make([]int32, next)}
	for i := range in.commOf {
		in.commOf[i] = -1
	}
	for pi, p := range parts {
		var members []int32
		for _, id := range ids[pi] {
			if id >= 0 {
				members = append(members, id)
			}
		}
		in.parts = append(in.parts, members)
		for _, c := range p.comms {
			var tc []int32
			for _, u := range c {
				if id := ids[pi][u]; id >= 0 {
					tc = append(tc, id)
					in.commOf[id] = int32(len(in.truth))
				}
			}
			if len(tc) > 0 {
				in.truth = append(in.truth, tc)
			}
		}
	}
	return in, ids
}

// lfrFile is one lfr-batch graph with its query file: lfrSetsPerFile
// sets of 1–4 nodes (sizes cycling), drawn by internal/queries from
// ground-truth communities. sets[i] came from ground-truth community
// from[i].
type lfrFile struct {
	in   *graphInput
	sets [][]int32
	from []int32
}

// lfrInput builds graph number i of a run with the given seed.
func lfrInput(seed int64, i int) (*lfrFile, error) {
	cfg := lfr.Default()
	cfg.N = lfrNodes
	cfg.Seed = seed*lfrGraphs + int64(i)
	res, err := lfr.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate LFR graph: %w", err)
	}
	in, ids := assemble([]part{{res.G, res.Communities}}, rand.New(rand.NewSource(cfg.Seed)))
	f := &lfrFile{in: in}
	// One draw of 4-node sets; set i keeps its first 1 + i%4 nodes, which
	// is a draw of that size from the same community.
	sets := queries.Generate(res.G, res.Communities, queries.Options{NumSets: lfrSetsPerFile, Size: 4, Seed: cfg.Seed})
	for i, s := range sets {
		q := make([]int32, 1+i%4)
		for j := range q {
			q[j] = ids[0][s[j]]
		}
		f.sets = append(f.sets, q)
		f.from = append(f.from, in.commOf[q[0]])
	}
	return f, nil
}

// forestInput builds the forest: forestParts small LFR components of
// forestPartSize nodes and one whale LFR component of whaleSize nodes.
func forestInput(seed int64) (*graphInput, error) {
	var parts []part
	for i := 0; i < forestParts; i++ {
		cfg := lfr.Config{N: forestPartSize, AvgDeg: 8, MaxDeg: 24, Mu: 0.2, DegreeExp: 2, CommExp: 1,
			MinComm: 12, MaxComm: 32, Seed: seed*1000003 + int64(i)}
		res, err := lfr.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate forest part %d: %w", i, err)
		}
		parts = append(parts, part{res.G, res.Communities})
	}
	cfg := lfr.Config{N: whaleSize, AvgDeg: 12, MaxDeg: 120, Mu: 0.2, DegreeExp: 2, CommExp: 1,
		MinComm: 20, MaxComm: 400, Seed: seed*1000003 + forestParts}
	res, err := lfr.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate whale: %w", err)
	}
	parts = append(parts, part{res.G, res.Communities})
	in, _ := assemble(parts, rand.New(rand.NewSource(seed)))
	return in, nil
}

// queryKey is one distinct request of the forest workloads.
type queryKey struct {
	nodes []int32
	nca   bool
	whale bool
}

// forestKeys draws n query keys of 1–2 nodes, each from one ground-truth
// community. The mix is fixed by rank, so every seed has the same share
// of each kind at the same popularity. With mixed, rank r is a whale key
// when r%64 == 63 and an NCA key (on a small component) when r%32 == 15:
// both kinds sit outside the hottest ranks, where one key's answer would
// set a run's figures. Every other key is an FPA key on a small
// component.
func forestKeys(in *graphInput, n int, mixed bool, rng *rand.Rand) []queryKey {
	whale := len(in.parts) - 1
	partOf := make([]int32, len(in.commOf))
	for p, members := range in.parts {
		for _, u := range members {
			partOf[u] = int32(p)
		}
	}
	var small, big [][]int32
	for _, c := range in.truth {
		if len(c) < 2 {
			continue
		}
		if int(partOf[c[0]]) == whale {
			big = append(big, c)
		} else {
			small = append(small, c)
		}
	}
	keys := make([]queryKey, n)
	for r := range keys {
		k := queryKey{whale: mixed && r%64 == 63, nca: mixed && r%32 == 15}
		pool := small
		if k.whale {
			pool = big
		}
		c := pool[rng.Intn(len(pool))]
		i := rng.Intn(len(c))
		k.nodes = []int32{c[i]}
		if rng.Intn(2) == 1 {
			j := (i + 1 + rng.Intn(len(c)-1)) % len(c)
			k.nodes = append(k.nodes, c[j])
		}
		keys[r] = k
	}
	return keys
}

// churnBatch draws one effective write batch inside one small component:
// adds edges that are absent and removes edges whose loss keeps the
// component connected, so the component partition stays fixed and every
// query key stays answerable. The batch is drawn from the model's
// current state, so the same seed and history give the same batch.
func (m *model) churnBatch(rng *rand.Rand, members []int32, adds, dels int) []op {
	var ops []op
	for try := 0; try < 20*adds && len(ops) < adds; try++ {
		u, v := members[rng.Intn(len(members))], members[rng.Intn(len(members))]
		if u == v || m.hasEdge(u, v) || hasOp(ops, u, v) {
			continue
		}
		ops = append(ops, op{u: u, v: v})
	}
	var removed []op
	for try := 0; try < 20*dels && len(removed) < dels; try++ {
		u := members[rng.Intn(len(members))]
		if len(m.adj[u]) < 2 {
			continue
		}
		v := m.adj[u][rng.Intn(len(m.adj[u]))]
		if len(m.adj[v]) < 2 {
			continue
		}
		// Tentatively drop the edge: keep it only if u still reaches v.
		m.adj[u] = deleteSorted(m.adj[u], v)
		m.adj[v] = deleteSorted(m.adj[v], u)
		m.nextStamp()
		connected := false
		for _, w := range m.walk(u, nil) {
			if w == v {
				connected = true
				break
			}
		}
		if connected {
			removed = append(removed, op{del: true, u: u, v: v})
			continue
		}
		m.adj[u] = insertSorted(m.adj[u], v)
		m.adj[v] = insertSorted(m.adj[v], u)
	}
	for _, o := range removed {
		m.adj[o.u] = insertSorted(m.adj[o.u], o.v)
		m.adj[o.v] = insertSorted(m.adj[o.v], o.u)
	}
	return append(ops, removed...)
}

func hasOp(ops []op, u, v int32) bool {
	for _, o := range ops {
		if (o.u == u && o.v == v) || (o.u == v && o.v == u) {
			return true
		}
	}
	return false
}

// zipfRanks draws popularity ranks k in [0, n) with P(k) ∝ (head+k)^-1.1.
func zipfRanks(rng *rand.Rand, n int, head float64) *rand.Zipf {
	return rand.NewZipf(rng, 1.1, head, uint64(n-1))
}
