package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
)

// checkState verifies a snapshot's whole graph against the model: the
// same node count, exactly the model's edges (each of weight 1), and the
// same number of connected components.
func checkState(snap *engine.Snapshot, m *model) error {
	csr := snap.CSR()
	if csr.NumNodes() != m.numNodes() || csr.NumEdges() != m.edges {
		return fmt.Errorf("snapshot has %d nodes and %d edges, model %d and %d",
			csr.NumNodes(), csr.NumEdges(), m.numNodes(), m.edges)
	}
	want := m.edgeSet()
	i := 0
	var bad error
	csr.Edges(func(u, v graph.Node, w float64) bool {
		if i >= len(want) || want[i] != [2]int32{u, v} || w != 1 {
			bad = fmt.Errorf("snapshot edge %d is (%d,%d,w=%g), model has %v", i, u, v, w, want[min(i, len(want)-1)])
			return false
		}
		i++
		return true
	})
	if bad != nil {
		return bad
	}
	if got, want := snap.NumComponents(), m.components(); got != want {
		return fmt.Errorf("snapshot has %d components, model %d", got, want)
	}
	return nil
}

// checkIDs verifies that parsing kept the generator's ids: node i carries
// label i, so answers in node ids are answers in the edge list's terms.
func checkIDs(g *graph.Graph) error {
	for i, l := range g.Labels() {
		if l != strconv.Itoa(i) {
			return fmt.Errorf("node %d has label %q", i, l)
		}
	}
	return nil
}

// selfTest shows that the checks reject planted faults: an answer with a
// community node dropped, an answer with a perturbed score, and a model
// that skipped one op of a batch the program applied. It runs on a tiny
// fixed graph at the start of every run, so a checker that has stopped
// rejecting anything fails the run.
func selfTest() error {
	// Two 4-cliques joined by one edge, and a separate triangle.
	edges := []byte("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n8 9\n9 10\n8 10\n")
	m, err := parseModel(edges)
	if err != nil {
		return err
	}
	g, err := graph.ParseEdgeList(bytes.NewReader(edges))
	if err != nil {
		return err
	}
	eng := engine.New(g, engine.Options{})
	q := []int32{0}
	res, err := eng.Search(context.Background(), engine.Query{Nodes: q, Opts: dmcs.Options{LayerPruning: true}})
	if err != nil {
		return err
	}
	good := answer{query: q, community: res.Community, score: res.Score}
	if err := m.checkAnswer(good); err != nil {
		return fmt.Errorf("a correct answer was rejected: %w", err)
	}
	if len(good.community) < 2 {
		return errors.New("self-test community too small to drop a node from")
	}
	dropped := good
	dropped.community = append([]int32(nil), good.community[1:]...)
	if good.community[0] == q[0] {
		dropped.community = append([]int32{q[0]}, good.community[2:]...)
	}
	if m.checkAnswer(dropped) == nil {
		return errors.New("an answer with a community node dropped was accepted")
	}
	perturbed := good
	perturbed.score *= 1 + 1e-9
	if m.checkAnswer(perturbed) == nil {
		return errors.New("an answer with a perturbed score was accepted")
	}

	ops := []op{{u: 0, v: 5}, {del: true, u: 8, v: 9}}
	var b engine.Batch
	for _, o := range ops {
		stage(&b, o)
	}
	if _, err := eng.Apply(b); err != nil {
		return err
	}
	skipped := m.clone()
	if err := m.apply(ops); err != nil {
		return err
	}
	if err := checkState(eng.Snapshot(), m); err != nil {
		return fmt.Errorf("a correct final state was rejected: %w", err)
	}
	if err := skipped.apply(ops[:1]); err != nil {
		return err
	}
	if checkState(eng.Snapshot(), skipped) == nil {
		return errors.New("a model that skipped an op was accepted")
	}
	return nil
}

// stage adds o to an engine batch.
func stage(b *engine.Batch, o op) {
	if o.del {
		b.RemoveEdge(o.u, o.v)
	} else {
		b.AddEdge(o.u, o.v)
	}
}

// deltas converts ops to the graph layer's form, for timing MergeCSR
// and UpdateComponents on the same batch the engine applies.
func deltas(ops []op) []graph.Delta {
	out := make([]graph.Delta, len(ops))
	for i, o := range ops {
		if o.del {
			out[i] = graph.Delta{Op: graph.DeltaRemoveEdge, U: o.u, V: o.v}
		} else {
			out[i] = graph.Delta{Op: graph.DeltaAddEdge, U: o.u, V: o.v, W: 1}
		}
	}
	return out
}
