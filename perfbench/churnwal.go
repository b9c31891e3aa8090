package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

// churn-wal shape: a round applies churnBatches write batches of
// churnAdds insertions and churnDels removals, each inside one small
// component picked with Zipf popularity, and follows each with
// churnQueries FPA queries drawn uniformly from churnKeys keys on small
// components, so nearly every query of a round computes (the round
// starts on a freshly recovered engine, whose cache is empty). The engine
// checkpoints after every churnCkptEvery-th batch, so the close and
// recovery that end each round replay the same log suffix of
// churnBatches % churnCkptEvery records.
const (
	churnBatches   = 40
	churnCkptEvery = 16
	churnQueries   = 4
	churnAdds      = 3
	churnDels      = 2
	churnKeys      = 4096
)

// churnPolicy is the WAL fsync policy of churn-wal: dmcsd's default.
const churnPolicy = wal.SyncInterval

// runChurnWAL is `dmcs -updates -wal` and `dmcsd -data-dir` traffic: an
// engine opened with OpenDurable (fsync policy "interval", 50 ms) taking
// small write batches between queries, checkpointing periodically, and
// closed and recovered at the end of every round.
func runChurnWAL(b *bench) error {
	in, err := forestInput(b.seed)
	if err != nil {
		return err
	}
	m, err := parseModel(in.edgeList)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	keys := forestKeys(in, churnKeys, false, rng)
	eopts := engine.Options{StaleRetention: 8}
	dir := filepath.Join(b.dir, "data")
	wopts := wal.Options{Dir: dir, Policy: churnPolicy}

	var eng *engine.Engine
	err = b.setup(1, func(rep int) (time.Duration, time.Duration, error) {
		if eng != nil {
			if err := eng.CloseWAL(); err != nil {
				return 0, 0, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		g, err := graph.ParseEdgeList(bytes.NewReader(in.edgeList))
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		e, info, err := engine.OpenDurable(g, wopts, eopts)
		open := time.Since(t1)
		if err != nil {
			return 0, 0, err
		}
		eng = e
		if !info.FreshStart {
			return 0, 0, fmt.Errorf("setup did not start from a fresh data directory")
		}
		return t1.Sub(t0), open, checkIDs(g)
	})
	defer func() {
		if eng != nil {
			eng.CloseWAL()
		}
	}()
	if err != nil {
		return err
	}

	var shadow *wal.Log
	if b.traced {
		// A log of the benchmark's own, fed the same records, times
		// wal.Log.Append from outside the engine.
		shadow, _, err = wal.Open(wal.Options{Dir: filepath.Join(b.dir, "shadow"), Policy: churnPolicy})
		if err != nil {
			return err
		}
		defer shadow.Close()
	}
	shadowEpoch := uint64(0)

	ctx := context.Background()
	parts := zipfRanks(rng, len(in.parts)-1, 1)
	memo := make([]memoAnswer, len(keys))
	var queryUS, applyUS, recoveryS, f1s []float64
	var merge, comps, subUS, reflood, inval, retained, applyAllocs, walOpen, replay, replayed, appendUS []float64
	var walBytes, walOps int64
	err = b.runRounds(func(r *round) (time.Duration, error) {
		var spent time.Duration
		keep := r.measured && r.tr == nil
		for i := 1; i <= churnBatches; i++ {
			ops := m.churnBatch(rng, in.parts[int(parts.Uint64())], churnAdds, churnDels)
			if len(ops) == 0 {
				continue
			}
			var batch engine.Batch
			for _, o := range ops {
				stage(&batch, o)
			}
			if r.tr != nil {
				mu, cu := graphProbe(r, eng.Snapshot(), ops)
				merge, comps = append(merge, mu), append(comps, cu)
			}
			logBefore, err := readSizes(dir, "wal-*.log")
			if err != nil {
				return 0, err
			}
			var ms runtime.MemStats
			if r.tr != nil {
				runtime.ReadMemStats(&ms)
			}
			mallocs := ms.Mallocs
			sp := r.tr.begin("engine.apply", r.root)
			t := time.Now()
			st, err := eng.Apply(batch)
			d := time.Since(t)
			r.tr.end(sp)
			if r.tr != nil {
				runtime.ReadMemStats(&ms)
				applyAllocs = append(applyAllocs, float64(ms.Mallocs-mallocs))
			}
			if err == nil {
				if err = m.apply(ops); err == nil && st.Epoch != m.epoch {
					err = fmt.Errorf("apply produced epoch %d, model is at %d", st.Epoch, m.epoch)
				}
			}
			b.count(opApply, err)
			if err != nil {
				continue
			}
			spent += d
			if keep {
				applyUS = append(applyUS, micros(d))
			}
			logAfter, err := readSizes(dir, "wal-*.log")
			if err != nil {
				return 0, err
			}
			walBytes += logAfter - logBefore
			walOps += int64(len(ops))
			reflood = append(reflood, float64(st.RefloodedNodes))
			inval = append(inval, float64(st.Invalidated))
			retained = append(retained, float64(st.Retained))
			if r.tr != nil {
				snap := eng.Snapshot()
				shadowEpoch++
				rec := wal.Record{Epoch: shadowEpoch, Stamps: touchedStamps(snap), Ops: deltas(ops)}
				sp := r.tr.begin("wal.append", r.root)
				err := shadow.Append(rec)
				appendUS = append(appendUS, micros(r.tr.end(sp)))
				if err != nil {
					return 0, err
				}
				subUS = append(subUS, subCSRProbe(r, snap)...)
			}
			if i%churnCkptEvery == 0 {
				sp := r.tr.begin("wal.checkpoint", r.root)
				t := time.Now()
				_, err := eng.Checkpoint()
				d := time.Since(t)
				r.tr.end(sp)
				b.count(opCheckpoint, err)
				spent += d
			}
			for j := 0; j < churnQueries; j++ {
				k := rng.Intn(len(keys))
				q := engineQuery(keys[k])
				snap := eng.Snapshot()
				id, err := snap.ComponentID(q.Nodes)
				if err != nil {
					b.count(opQuery, err)
					continue
				}
				ver := snap.ComponentVersion(id)
				sp := r.tr.begin("engine.search", r.root)
				t := time.Now()
				res, err := eng.Search(ctx, q)
				d := time.Since(t)
				r.tr.end(sp)
				if err == nil && res.TimedOut {
					err = fmt.Errorf("query %v timed out", q.Nodes)
				}
				b.count(opQuery, err)
				if err != nil {
					continue
				}
				spent += d
				r.served(d, 1)
				if keep {
					queryUS = append(queryUS, micros(d))
				}
				a := answer{query: keys[k].nodes, community: res.Community, score: res.Score, version: ver}
				if checkedNow, err := memo[k].check(m, a); err != nil {
					b.fail("churn-wal key %d: %v", k, err)
				} else if checkedNow {
					f1s = append(f1s, f1(res.Community, in.truth[in.commOf[keys[k].nodes[0]]]))
				}
			}
		}

		// Restart: close the log and recover the directory.
		want := eng.EncodeState(nil)
		t := time.Now()
		err := eng.CloseWAL()
		spent += time.Since(t)
		if err != nil {
			b.count(opRecovery, err)
			return 0, err
		}
		if r.tr != nil {
			sp := r.tr.begin("wal.open", r.root)
			lg, rec, err := wal.Open(wopts)
			walOpen = append(walOpen, r.tr.end(sp).Seconds())
			if err != nil {
				return 0, err
			}
			replayed = append(replayed, float64(len(rec.Records)))
			if err := lg.Close(); err != nil {
				return 0, err
			}
		}
		sp := r.tr.begin("engine.open_durable", r.root)
		t = time.Now()
		next, info, err := engine.OpenDurable(nil, wopts, eopts)
		d := time.Since(t)
		r.tr.end(sp)
		if err == nil {
			err = checkRecovery(next, info, want, m.epoch)
			if err != nil {
				next.CloseWAL()
			}
		}
		b.count(opRecovery, err)
		if err != nil {
			return 0, err
		}
		eng = next
		spent += d
		if keep {
			recoveryS = append(recoveryS, d.Seconds())
		}
		if r.tr != nil && len(walOpen) > 0 {
			replay = append(replay, d.Seconds()-walOpen[len(walOpen)-1])
		}
		return spent, nil
	})
	if err != nil {
		return err
	}
	if err := checkState(eng.Snapshot(), m); err != nil {
		b.fail("churn-wal final state: %v", err)
	}
	ckpt, err := newestCheckpointSize(dir)
	if err != nil {
		return err
	}
	b.e2e["query_p50_us"] = median(queryUS)
	b.e2e["f1_median"] = median(f1s)
	if p99, ok := percentile(queryUS, 0.99); ok {
		b.layer["query_p99_us"] = p99
	}
	b.layer["apply_p50_us"] = median(applyUS)
	if p99, ok := percentile(applyUS, 0.99); ok {
		b.layer["apply_p99_us"] = p99
	}
	b.layer["recovery_s"] = median(recoveryS)
	b.layer["ckpt_bytes_per_edge"] = float64(ckpt) / float64(m.edges)
	b.layer["wal_bytes_per_op"] = float64(walBytes) / float64(max(walOps, 1))
	b.layer["engine.apply_us"] = b.tr.medianOf("engine.apply") * 1e6
	b.layer["engine.apply_allocs"] = median(applyAllocs)
	b.layer["engine.invalidated"] = mean(inval)
	b.layer["engine.retained"] = mean(retained)
	b.layer["engine.replay_s"] = median(replay)
	b.layer["graph.merge_us"] = median(merge)
	b.layer["graph.components_us"] = median(comps)
	b.layer["graph.reflooded_nodes"] = mean(reflood)
	b.layer["graph.subcsr_us"] = median(subUS)
	b.layer["graph.subcsr_builds"] = float64(len(subUS)) / float64(max(1, len(b.tracedRoundMS)))
	b.layer["wal.append_us"] = median(appendUS)
	b.layer["wal.checkpoint_ms"] = b.tr.medianOf("wal.checkpoint") * 1e3
	b.layer["wal.open_s"] = median(walOpen)
	b.layer["wal.records_replayed"] = median(replayed)
	return nil
}

// checkRecovery verifies a recovered engine: byte-equal state to the
// engine that was closed, the model's epoch (one per effective batch),
// and the expected log suffix replayed on top of the last checkpoint.
func checkRecovery(e *engine.Engine, info engine.RecoveryInfo, want []byte, epoch uint64) error {
	if got := e.EncodeState(nil); !bytes.Equal(got, want) {
		return fmt.Errorf("recovered state differs from the closed engine's (%d vs %d bytes)", len(got), len(want))
	}
	if e.Epoch() != epoch {
		return fmt.Errorf("recovered epoch %d, %d batches were applied", e.Epoch(), epoch)
	}
	if info.RecordsReplayed != churnBatches%churnCkptEvery {
		return fmt.Errorf("recovery replayed %d records, want %d", info.RecordsReplayed, churnBatches%churnCkptEvery)
	}
	return nil
}

// touchedStamps lists the (identity, version) stamps of the components
// the snapshot's own epoch touched, as the engine logs them.
func touchedStamps(s *engine.Snapshot) []wal.ComponentStamp {
	var out []wal.ComponentStamp
	for id := int32(0); int(id) < s.NumComponents(); id++ {
		if s.ComponentVersion(id) == s.Epoch() {
			out = append(out, wal.ComponentStamp{Key: s.ComponentKey(id), Ver: s.Epoch()})
		}
	}
	return out
}

// newestCheckpointSize returns the size of the newest checkpoint in dir
// (checkpoint names are fixed-width, so the newest sorts last).
func newestCheckpointSize(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(names) == 0 {
		return 0, fmt.Errorf("no checkpoint in %s (%v)", dir, err)
	}
	sort.Strings(names)
	st, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// memoAnswer remembers the last fully checked answer of one key: the
// model version it was checked at and a digest of its community and
// score. A repeat of the same digest at the same version is the same,
// already checked answer.
type memoAnswer struct {
	version uint64
	digest  uint64
	ok      bool
}

// check verifies an engine answer, in full unless it repeats the
// memoized one, and reports whether it ran the full check.
func (a *memoAnswer) check(m *model, ans answer) (bool, error) {
	h := fnv.New64a()
	var buf [8]byte
	for _, u := range ans.community {
		buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(buf[:4])
	}
	bits := math.Float64bits(ans.score)
	for i := range buf {
		buf[i] = byte(bits >> (8 * i))
	}
	h.Write(buf[:])
	if a.ok && a.version == ans.version && a.digest == h.Sum64() {
		return false, nil
	}
	err := m.checkAnswer(ans)
	*a = memoAnswer{version: ans.version, digest: h.Sum64(), ok: err == nil}
	return true, err
}

// readSizes returns the total size of the files in dir whose names match
// pattern.
func readSizes(dir, pattern string) (int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, m := range matches {
		st, err := os.Stat(m)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
