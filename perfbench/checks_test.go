package main

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
)

// The run-start self-test: every planted fault is rejected and every
// correct answer and state accepted.
func TestSelfTestRejectsPlantedFaults(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// fixture is a forest engine with a model of the same graph.
func fixture(t *testing.T) (*engine.Engine, *model, *graphInput) {
	t.Helper()
	in, err := forestInput(6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ParseEdgeList(bytes.NewReader(in.edgeList))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseModel(in.edgeList)
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(g, engine.Options{}), m, in
}

func search(t *testing.T, eng *engine.Engine, q []int32) answer {
	t.Helper()
	snap := eng.Snapshot()
	id, err := snap.ComponentID(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(context.Background(), engine.Query{Nodes: q, Opts: dmcs.Options{LayerPruning: true}})
	if err != nil {
		t.Fatal(err)
	}
	return answer{query: q, community: res.Community, score: res.Score, version: snap.ComponentVersion(id)}
}

func TestCheckAnswerPlantedFaults(t *testing.T) {
	eng, m, in := fixture(t)
	q := []int32{in.parts[0][0]}
	good := search(t, eng, q)
	if err := m.checkAnswer(good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	// A dropped community node (not the query node).
	for i, u := range good.community {
		if u == q[0] {
			continue
		}
		bad := good
		bad.community = append(append([]int32(nil), good.community[:i]...), good.community[i+1:]...)
		if m.checkAnswer(bad) == nil {
			t.Errorf("answer without node %d accepted", u)
		}
	}
	// The query node itself dropped.
	bad := good
	bad.community = nil
	for _, u := range good.community {
		if u != q[0] {
			bad.community = append(bad.community, u)
		}
	}
	if m.checkAnswer(bad) == nil {
		t.Error("answer missing its query node accepted")
	}
	// A perturbed score.
	bad = good
	bad.score = good.score * (1 + 1e-9)
	if m.checkAnswer(bad) == nil {
		t.Error("perturbed score accepted")
	}
	// A stale component version.
	bad = good
	bad.version = good.version + 1
	if m.checkAnswer(bad) == nil {
		t.Error("wrong component version accepted")
	}
	// A node of another component added.
	bad = good
	bad.community = append(append([]int32(nil), good.community...), in.parts[1][0])
	slices.Sort(bad.community)
	if m.checkAnswer(bad) == nil {
		t.Error("disconnected community accepted")
	}
}

// After writes, the score is checked against the w_G frozen at the
// answering component's version, and the final state against the model
// with every batch applied.
func TestFrozenWeightAndFinalState(t *testing.T) {
	eng, m, in := fixture(t)
	rng := rand.New(rand.NewSource(1))
	untouched := []int32{in.parts[5][0]}
	before := search(t, eng, untouched)
	for i := 0; i < 20; i++ {
		ops := m.churnBatch(rng, in.parts[i%3], 3, 1)
		var b engine.Batch
		for _, o := range ops {
			stage(&b, o)
		}
		st, err := eng.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.apply(ops); err != nil {
			t.Fatal(err)
		}
		if st.Epoch != m.epoch {
			t.Fatalf("engine epoch %d, model %d", st.Epoch, m.epoch)
		}
	}
	if m.wHist[0] == m.wHist[m.epoch] {
		t.Fatal("the writes left w_G unchanged; the test needs it to move")
	}
	// Untouched component: still version 0, scored with the initial w_G.
	after := search(t, eng, untouched)
	if after.version != 0 || after.score != before.score {
		t.Fatalf("untouched component moved: version %d, score %v -> %v", after.version, before.score, after.score)
	}
	if err := m.checkAnswer(after); err != nil {
		t.Fatal(err)
	}
	touched := search(t, eng, []int32{in.parts[0][0]})
	if touched.version == 0 {
		t.Fatal("touched component kept version 0")
	}
	if err := m.checkAnswer(touched); err != nil {
		t.Fatal(err)
	}
	if err := checkState(eng.Snapshot(), m); err != nil {
		t.Fatal(err)
	}
	// A model that skipped one op no longer matches.
	ops := m.churnBatch(rng, in.parts[7], 2, 0)
	var b engine.Batch
	for _, o := range ops {
		stage(&b, o)
	}
	if _, err := eng.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := m.apply(ops[:1]); err != nil {
		t.Fatal(err)
	}
	if checkState(eng.Snapshot(), m) == nil {
		t.Fatal("a model that skipped an op matched the engine")
	}
}
