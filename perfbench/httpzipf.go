package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
	"dmcs/internal/server"
)

// http-zipf shape: zipfKeys distinct query keys, requested with Zipf
// popularity by one closed-loop client; every zipfApplyEvery-th request
// is followed by one /apply of zipfAdds insertions and zipfDels removals
// inside one small component; a round is zipfRound requests. The result
// cache (dmcsd -cache) holds every key, so misses come from writes.
const (
	zipfKeys       = 2048
	zipfCache      = 4096
	zipfRound      = 4096
	zipfApplyEvery = 1024
	zipfAdds       = 2
	zipfDels       = 1
	zipfHead       = 32 // Zipf offset: the hot set is spread over tens of keys
)

// runHTTPZipf is dmcsd traffic dispatched in-process through
// Server.ServeHTTP, with no sockets. Admission is opened up (no rate
// limit, no overload sampler) so that no request is shed, rate-limited
// or served stale; the engine has dmcsd's defaults apart from the cache
// size.
func runHTTPZipf(b *bench) error {
	in, err := forestInput(b.seed)
	if err != nil {
		return err
	}
	m, err := parseModel(in.edgeList)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	keys := forestKeys(in, zipfKeys, true, rng)
	var eng *engine.Engine
	if err := b.setup(1, func(rep int) (time.Duration, time.Duration, error) {
		t0 := time.Now()
		g, err := graph.ParseEdgeList(bytes.NewReader(in.edgeList))
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		eng = engine.New(g, engine.Options{CacheSize: zipfCache, StaleRetention: 8})
		return t1.Sub(t0), time.Since(t1), checkIDs(g)
	}); err != nil {
		return err
	}
	srv := server.New(eng, server.Config{
		DefaultTimeout: 30 * time.Second,
		SampleInterval: -1,
		CheapRate:      1e12, CheapBurst: 1e12,
		ExpensiveRate: 1e12, ExpensiveBurst: 1e12,
	})
	defer srv.Close()

	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i] = queryBody(k)
	}
	c := &httpClient{srv: srv, m: m, keys: keys, verified: make([]verifiedAnswer, len(keys))}
	ranks := zipfRanks(rng, len(keys), zipfHead)
	parts := zipfRanks(rng, len(in.parts)-1, 1)
	arena := dmcs.NewArena()

	var queryUS, applyUS, f1s, hitUS, hitAllocs, peelUS, removals, peelAllocs []float64
	var merge, comps, subUS, reflood, inval, retained, hitRatio, computed, collapsed []float64
	// send issues key k's request and checks the response; it reports the
	// latency, whether the response was checked in full, and whether the
	// request succeeded.
	send := func(r *round, k int) (time.Duration, bool, bool) {
		d, fresh, err := c.query(r, k, bodies[k])
		b.count(opQuery, err)
		if err != nil || fresh == nil {
			return d, false, err == nil
		}
		if fresh.err != nil {
			b.fail("http-zipf key %d: %v", k, fresh.err)
		} else {
			f1s = append(f1s, f1(fresh.community, in.truth[in.commOf[keys[k].nodes[0]]]))
		}
		return d, true, true
	}
	// Every key once before the rounds, so that they measure the steady
	// state (hits, and the recomputations writes cause) rather than the
	// first sight of rare keys.
	for k := range keys {
		send(&round{root: -1}, k)
	}
	err = b.runRounds(func(r *round) (time.Duration, error) {
		var spent time.Duration
		st0 := eng.Stats()
		var peelQs []engine.Query
		for i := 0; i < zipfRound; i++ {
			k := int(ranks.Uint64())
			d, full, ok := send(r, k)
			if !ok {
				continue
			}
			spent += d
			r.served(d, 1)
			if r.measured && r.tr == nil {
				queryUS = append(queryUS, micros(d))
			}
			if full && r.tr != nil && len(peelQs) < 32 {
				peelQs = append(peelQs, engineQuery(keys[k]))
			}
			if r.tr != nil {
				sp := r.tr.begin("engine.hit", r.root)
				_, err := eng.Search(context.Background(), engineQuery(keys[k]))
				hitUS = append(hitUS, micros(r.tr.end(sp)))
				if err != nil {
					b.fail("hit probe on key %d: %v", k, err)
				}
			}
			if (i+1)%zipfApplyEvery != 0 {
				continue
			}
			members := in.parts[int(parts.Uint64())]
			ops := m.churnBatch(rng, members, zipfAdds, zipfDels)
			if len(ops) == 0 {
				continue
			}
			if r.tr != nil {
				mu, cu := graphProbe(r, eng.Snapshot(), ops)
				merge, comps = append(merge, mu), append(comps, cu)
			}
			d, st, err := c.apply(r, ops)
			b.count(opApply, err)
			if err != nil {
				continue
			}
			spent += d
			if r.measured && r.tr == nil {
				applyUS = append(applyUS, micros(d))
			}
			reflood = append(reflood, float64(st.RefloodedNodes))
			inval = append(inval, float64(st.Invalidated))
			retained = append(retained, float64(st.Retained))
			if r.tr != nil {
				subUS = append(subUS, subCSRProbe(r, eng.Snapshot())...)
			}
		}
		if r.measured && r.tr == nil {
			st := eng.Stats()
			hitRatio = append(hitRatio, float64(st.CacheHits-st0.CacheHits)/float64(st.Queries-st0.Queries))
			computed = append(computed, float64(st.Computed-st0.Computed))
			collapsed = append(collapsed, float64(st.Collapsed-st0.Collapsed))
		}
		if r.tr != nil {
			p, rm, al := peelProbe(r, eng.Snapshot(), arena, peelQs)
			peelUS, removals, peelAllocs = append(peelUS, p...), append(removals, rm...), append(peelAllocs, al)
			hal, err := hitAllocProbe(eng, engineQuery(keys[0]))
			if err != nil {
				return 0, err
			}
			hitAllocs = append(hitAllocs, hal)
		}
		return spent, nil
	})
	if err != nil {
		return err
	}
	if err := checkState(eng.Snapshot(), m); err != nil {
		b.fail("http-zipf final state: %v", err)
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
	b.layer["server.query_us"] = b.tr.medianOf("server.query") * 1e6
	b.layer["server.apply_us"] = b.tr.medianOf("server.apply") * 1e6
	b.layer["engine.hit_us"] = median(hitUS)
	b.layer["engine.hit_allocs"] = mean(hitAllocs)
	b.layer["engine.hit_ratio"] = median(hitRatio)
	b.layer["engine.computed"] = median(computed)
	b.layer["engine.collapsed"] = median(collapsed)
	b.layer["engine.invalidated"] = mean(inval)
	b.layer["engine.retained"] = mean(retained)
	b.layer["graph.merge_us"] = median(merge)
	b.layer["graph.components_us"] = median(comps)
	b.layer["graph.reflooded_nodes"] = mean(reflood)
	b.layer["graph.subcsr_us"] = median(subUS)
	b.layer["graph.subcsr_builds"] = float64(len(subUS)) / float64(max(1, len(b.tracedRoundMS)))
	b.layer["dmcs.peel_us"] = median(peelUS)
	b.layer["dmcs.removals"] = median(removals)
	b.layer["dmcs.peel_allocs"] = mean(peelAllocs)
	return nil
}

// queryBody is the /query request of one key.
func queryBody(k queryKey) []byte {
	b := []byte(`{"nodes":[`)
	for i, u := range k.nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(u), 10)
	}
	b = append(b, ']')
	if k.nca {
		b = append(b, `,"variant":"NCA"`...)
	}
	return append(b, '}')
}

// engineQuery is the engine query the server makes of one key: the
// server's option policy is layer pruning for FPA.
func engineQuery(k queryKey) engine.Query {
	q := engine.Query{Nodes: k.nodes, Opts: dmcs.Options{LayerPruning: !k.nca}}
	if k.nca {
		q.Variant = dmcs.VariantNCA
	}
	return q
}

// verifiedAnswer remembers the response bytes last checked in full for a
// key, and the component version they were checked at.
type verifiedAnswer struct {
	body    []byte
	version uint64
	ok      bool
}

// checked is the outcome of a full check of one response.
type checked struct {
	community []int32
	err       error
}

// httpClient is the closed-loop client: it sends one request at a time
// and checks each response. A response that repeats, byte for byte, the
// last fully checked answer of its key at the same component version is
// the same answer; any other response is decoded and checked in full.
type httpClient struct {
	srv      http.Handler
	m        *model
	keys     []queryKey
	verified []verifiedAnswer
	w        recorder
}

// query sends key k's request and returns its latency, and the full
// check's outcome when the response was not a verified repeat.
func (c *httpClient) query(r *round, k int, body []byte) (time.Duration, *checked, error) {
	req, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.w.reset()
	sp := r.tr.begin("server.query", r.root)
	t := time.Now()
	c.srv.ServeHTTP(&c.w, req)
	d := time.Since(t)
	r.tr.end(sp)
	if c.w.code != http.StatusOK {
		return d, nil, fmt.Errorf("/query %s: status %d: %s", body, c.w.code, c.w.body.Bytes())
	}
	resp := c.w.body.Bytes()
	// The tail after "elapsed_us" is a timing, not part of the answer.
	cut := bytes.LastIndex(resp, []byte(`,"elapsed_us"`))
	if cut < 0 {
		return d, nil, fmt.Errorf("/query %s: response without elapsed_us: %s", body, resp)
	}
	ver := c.m.ver[c.keys[k].nodes[0]]
	v := &c.verified[k]
	if v.ok && v.version == ver && bytes.Equal(v.body, resp[:cut]) {
		return d, nil, nil
	}
	var out struct {
		Community []int32 `json:"community"`
		Score     float64 `json:"score"`
		Epoch     uint64  `json:"epoch"`
		Stale     bool    `json:"stale"`
		TimedOut  bool    `json:"timed_out"`
	}
	res := &checked{}
	if err := json.Unmarshal(resp, &out); err != nil {
		res.err = fmt.Errorf("decode response: %v", err)
		return d, res, nil
	}
	res.community = out.Community
	switch {
	case out.Stale || out.TimedOut:
		res.err = fmt.Errorf("answer flagged stale=%v timed_out=%v", out.Stale, out.TimedOut)
	default:
		res.err = c.m.checkAnswer(answer{query: c.keys[k].nodes, community: out.Community, score: out.Score, version: out.Epoch})
	}
	*v = verifiedAnswer{body: append(v.body[:0], resp[:cut]...), version: ver, ok: res.err == nil}
	return d, res, nil
}

// apply sends one /apply batch, applies it to the model, and checks the
// acknowledged epoch against the model's.
func (c *httpClient) apply(r *round, ops []op) (time.Duration, engine.ApplyStats, error) {
	var body []byte
	for _, o := range ops {
		if o.del {
			body = append(body, "del "...)
		} else {
			body = append(body, "add "...)
		}
		body = strconv.AppendInt(body, int64(o.u), 10)
		body = append(body, ' ')
		body = strconv.AppendInt(body, int64(o.v), 10)
		body = append(body, '\n')
	}
	var st engine.ApplyStats
	req, err := http.NewRequest(http.MethodPost, "/apply", bytes.NewReader(body))
	if err != nil {
		return 0, st, err
	}
	c.w.reset()
	sp := r.tr.begin("server.apply", r.root)
	t := time.Now()
	c.srv.ServeHTTP(&c.w, req)
	d := time.Since(t)
	r.tr.end(sp)
	if c.w.code != http.StatusOK {
		return d, st, fmt.Errorf("/apply: status %d: %s", c.w.code, c.w.body.Bytes())
	}
	var out struct {
		Epoch          uint64 `json:"epoch"`
		RefloodedNodes int    `json:"reflooded_nodes"`
		Components     int    `json:"components"`
		Invalidated    int    `json:"invalidated"`
		Retained       int    `json:"retained"`
	}
	if err := json.Unmarshal(c.w.body.Bytes(), &out); err != nil {
		return d, st, fmt.Errorf("/apply: decode response: %v", err)
	}
	if err := c.m.apply(ops); err != nil {
		return d, st, err
	}
	if out.Epoch != c.m.epoch {
		return d, st, fmt.Errorf("/apply acknowledged epoch %d, model is at %d", out.Epoch, c.m.epoch)
	}
	st = engine.ApplyStats{Epoch: out.Epoch, RefloodedNodes: out.RefloodedNodes, Components: out.Components,
		Invalidated: out.Invalidated, Retained: out.Retained}
	return d, st, nil
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *recorder) reset() {
	if w.h == nil {
		w.h = http.Header{}
	}
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

// hitAllocProbe returns the allocations of one warm cache hit on q,
// averaged over many calls.
func hitAllocProbe(eng *engine.Engine, q engine.Query) (float64, error) {
	const n = 256
	ctx := context.Background()
	if _, err := eng.Search(ctx, q); err != nil {
		return 0, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < n; i++ {
		eng.Search(ctx, q)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / n, nil
}

// graphProbe times graph.MergeCSR and graph.UpdateComponents on the
// pre-batch snapshot's CSR with the batch's ops, the two graph-layer
// steps Engine.Apply runs, and returns both in microseconds.
func graphProbe(r *round, snap *engine.Snapshot, ops []op) (mergeUS, compsUS float64) {
	csr := snap.CSR()
	compID := make([]int32, csr.NumNodes())
	for id := 0; id < snap.NumComponents(); id++ {
		for _, u := range snap.ComponentMembers(int32(id)) {
			compID[u] = int32(id)
		}
	}
	ds := deltas(ops)
	sp := r.tr.begin("graph.merge", r.root)
	merged, info := graph.MergeCSR(csr, ds)
	mergeUS = micros(r.tr.end(sp))
	sp = r.tr.begin("graph.components", r.root)
	graph.UpdateComponents(merged, compID, snap.NumComponents(), info)
	compsUS = micros(r.tr.end(sp))
	return mergeUS, compsUS
}

// subCSRProbe builds the sub-CSR of every component the last write
// stamped (the cold builds the next queries on them would pay) and
// returns each build's time in microseconds.
func subCSRProbe(r *round, snap *engine.Snapshot) []float64 {
	var out []float64
	for id := 0; id < snap.NumComponents(); id++ {
		if snap.ComponentVersion(int32(id)) != snap.Epoch() {
			continue
		}
		sp := r.tr.begin("graph.subcsr", r.root)
		snap.SubCSR(int32(id))
		out = append(out, micros(r.tr.end(sp)))
	}
	return out
}
