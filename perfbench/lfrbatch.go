package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
)

// runLFRBatch is the paper's offline evaluation as `dmcs -queries` runs
// it. One round is one invocation of the CLI's batch mode per graph: a
// fresh engine over the parsed graph answers the graph's whole query file
// through one SearchBatch call with the CLI's option policy (FPA with
// layer pruning, GOMAXPROCS workers). A query's answer arrives when its
// batch returns, so its latency is the batch's wall time.
func runLFRBatch(b *bench) error {
	files := make([]*lfrFile, lfrGraphs)
	models := make([]*model, lfrGraphs)
	qs := make([][]engine.Query, lfrGraphs)
	for i := range files {
		f, err := lfrInput(b.seed, i)
		if err != nil {
			return err
		}
		if models[i], err = parseModel(f.in.edgeList); err != nil {
			return err
		}
		files[i] = f
		for _, s := range f.sets {
			qs[i] = append(qs[i], engine.Query{Nodes: s, Opts: dmcs.Options{Timeout: time.Minute, LayerPruning: true}})
		}
	}
	graphs := make([]*graph.Graph, lfrGraphs)
	setupEngs := make([]*engine.Engine, lfrGraphs) // answer the warm-up round
	if err := b.setup(lfrGraphs, func(rep int) (time.Duration, time.Duration, error) {
		i := rep % lfrGraphs
		t0 := time.Now()
		g, err := graph.ParseEdgeList(bytes.NewReader(files[i].in.edgeList))
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		setupEngs[i] = engine.New(g, engine.Options{})
		graphs[i] = g
		return t1.Sub(t0), time.Since(t1), checkIDs(g)
	}); err != nil {
		return err
	}

	ctx := context.Background()
	arena := dmcs.NewArena()
	var batchMS, f1s, peelUS, removals, peelAllocs, subUS []float64
	var computed, collapsed, fused []float64
	err := b.runRounds(func(r *round) (time.Duration, error) {
		var spent time.Duration
		for gi, f := range files {
			eng := setupEngs[gi]
			if eng == nil {
				eng = engine.New(graphs[gi], engine.Options{})
			}
			setupEngs[gi] = nil
			if r.tr != nil {
				// The cold sub-CSR build the batch's first query would
				// otherwise pay.
				snap := eng.Snapshot()
				if id, err := snap.ComponentID(f.sets[0]); err == nil {
					sp := r.tr.begin("graph.subcsr", r.root)
					snap.SubCSR(id)
					subUS = append(subUS, micros(r.tr.end(sp)))
				}
			}
			sp := r.tr.begin("engine.search_batch", r.root)
			t := time.Now()
			res := eng.SearchBatch(ctx, qs[gi])
			d := time.Since(t)
			r.tr.end(sp)
			spent += d
			r.served(d, len(res))
			b.count(opBatch, nil)
			for i, br := range res {
				err := br.Err
				if err == nil && br.Result.TimedOut {
					err = fmt.Errorf("query %v timed out", f.sets[i])
				}
				b.count(opQuery, err)
				if err != nil {
					continue
				}
				a := answer{query: f.sets[i], community: br.Result.Community, score: br.Result.Score}
				if err := models[gi].checkAnswer(a); err != nil {
					b.fail("lfr-batch graph %d answer %d: %v", gi, i, err)
				}
				if !r.measured {
					f1s = append(f1s, f1(a.community, f.in.truth[f.from[i]]))
				}
			}
			if r.measured && r.tr == nil {
				batchMS = append(batchMS, millis(d))
				st := eng.Stats()
				computed = append(computed, float64(st.Computed))
				collapsed = append(collapsed, float64(st.Collapsed))
				fused = append(fused, float64(st.Fused))
			}
			if r.tr != nil {
				p, rm, al := peelProbe(r, eng.Snapshot(), arena, qs[gi])
				peelUS, removals, peelAllocs = append(peelUS, p...), append(removals, rm...), append(peelAllocs, al)
			}
		}
		return spent, nil
	})
	if err != nil {
		return err
	}
	b.e2e["query_p50_us"] = median(batchMS) * 1e3
	b.e2e["f1_median"] = median(f1s)
	b.layer["batch_p50_ms"] = median(batchMS)
	b.layer["dmcs.peel_us"] = median(peelUS)
	b.layer["dmcs.removals"] = median(removals)
	b.layer["dmcs.peel_allocs"] = mean(peelAllocs)
	b.layer["graph.subcsr_us"] = median(subUS)
	b.layer["graph.subcsr_builds"] = float64(len(subUS)) / float64(max(1, len(b.tracedRoundMS)))
	b.layer["engine.computed"] = median(computed)
	b.layer["engine.collapsed"] = median(collapsed)
	b.layer["engine.fused"] = median(fused)
	return nil
}

// peelProbe times dmcs.SearchSub on the benchmark's own arena for each
// query, against the engine's sub-CSR of the query's component, and
// returns the per-peel times, the removals of each peel, and the mean
// allocations per peel.
func peelProbe(r *round, snap *engine.Snapshot, arena *dmcs.Arena, qs []engine.Query) (peelUS, removals []float64, allocs float64) {
	type probe struct {
		q    engine.Query
		sub  *graph.SubCSR
		comp []graph.Node
	}
	probes := make([]probe, 0, len(qs))
	for _, q := range qs {
		q.Nodes = slices.Clone(q.Nodes)
		slices.Sort(q.Nodes)
		q.Nodes = slices.Compact(q.Nodes)
		id, err := snap.ComponentID(q.Nodes)
		if err != nil {
			continue
		}
		probes = append(probes, probe{q: q, sub: snap.SubCSR(id), comp: snap.ComponentMembers(id)})
	}
	peelUS = make([]float64, 0, len(probes))
	removals = make([]float64, 0, len(probes))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for _, p := range probes {
		sp := r.tr.begin("dmcs.peel", r.root)
		res, err := dmcs.SearchSub(arena, p.sub, p.q.Nodes, p.comp, p.q.Variant, p.q.Opts)
		d := r.tr.end(sp)
		if err == nil {
			peelUS = append(peelUS, micros(d))
			removals = append(removals, float64(res.Iterations))
		}
	}
	runtime.ReadMemStats(&ms)
	if len(probes) > 0 {
		allocs = float64(ms.Mallocs-mallocs) / float64(len(probes))
	}
	return peelUS, removals, allocs
}
