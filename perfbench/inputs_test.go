package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dmcs/internal/graph"
)

// The same seed rebuilds byte-identical inputs; another seed does not.
func TestForestInputIsSeeded(t *testing.T) {
	a, err := forestInput(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forestInput(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.edgeList, b.edgeList) || !reflect.DeepEqual(a.truth, b.truth) || !reflect.DeepEqual(a.parts, b.parts) {
		t.Fatal("forestInput(3) built two different inputs")
	}
	ka := forestKeys(a, 512, true, rand.New(rand.NewSource(3)))
	kb := forestKeys(b, 512, true, rand.New(rand.NewSource(3)))
	if !reflect.DeepEqual(ka, kb) {
		t.Fatal("forestKeys drew two different key sets from one seed")
	}
	c, err := forestInput(4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.edgeList, c.edgeList) {
		t.Fatal("seeds 3 and 4 built the same forest")
	}
	if len(a.parts) != forestParts+1 || len(a.parts[forestParts]) != whaleSize {
		t.Fatalf("forest has %d parts, whale of %d nodes", len(a.parts), len(a.parts[len(a.parts)-1]))
	}
}

func TestLFRInputIsSeeded(t *testing.T) {
	a, err := lfrInput(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lfrInput(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.in.edgeList, b.in.edgeList) || !reflect.DeepEqual(a.sets, b.sets) || !reflect.DeepEqual(a.from, b.from) {
		t.Fatal("lfrInput(5, 1) built two different inputs")
	}
	if len(a.sets) != lfrSetsPerFile {
		t.Fatalf("query file has %d sets, want %d", len(a.sets), lfrSetsPerFile)
	}
	for i, s := range a.sets {
		if len(s) != 1+i%4 {
			t.Fatalf("set %d has %d nodes, want %d", i, len(s), 1+i%4)
		}
		for _, u := range s {
			if a.in.commOf[u] != a.from[i] {
				t.Fatalf("set %d node %d is not in ground-truth community %d", i, u, a.from[i])
			}
		}
	}
}

// Parsing a generated edge list gives node i the label i, so the
// benchmark's ids and the program's agree.
func TestGeneratedIDsSurviveParsing(t *testing.T) {
	in, err := forestInput(2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ParseEdgeList(bytes.NewReader(in.edgeList))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIDs(g); err != nil {
		t.Fatal(err)
	}
	m, err := parseModel(in.edgeList)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != m.numNodes() || g.NumEdges() != m.edges {
		t.Fatalf("program parsed %d nodes %d edges, model %d and %d", g.NumNodes(), g.NumEdges(), m.numNodes(), m.edges)
	}
}

// Write batches are drawn from the model's state and a seeded stream,
// are effective, and keep every component connected.
func TestChurnBatchIsSeededAndKeepsComponents(t *testing.T) {
	in, err := forestInput(1)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := parseModel(in.edgeList)
	m2, _ := parseModel(in.edgeList)
	comps := m1.components()
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		part := in.parts[i%forestParts]
		a := m1.churnBatch(r1, part, 3, 2)
		b := m2.churnBatch(r2, part, 3, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("batch %d differs between two runs of one seed", i)
		}
		if len(a) == 0 {
			t.Fatalf("batch %d is empty", i)
		}
		if err := m1.apply(a); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if err := m2.apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if got := m1.components(); got != comps {
		t.Fatalf("churn changed the component count from %d to %d", comps, got)
	}
}
