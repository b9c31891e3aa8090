// Command perfbench is the repository's benchmark: one command that
// drives one of three workloads shaped like real traffic into dmcs,
// checks every answer against its own model of the graph, and prints
// the workload's metrics by name and unit. See README.md.
//
//	bash perfbench/run.sh --workload lfr-batch --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// With --trace 0 it carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced run. A failed operation or a failed
// check makes the command exit with status 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of dmcs sees that every workload has
// and that hold steady from run to run on a shared 2-vCPU machine; see
// README.md for why throughput and round time are not among them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"query_p50_us", "us"},
	{"f1_median", "ratio"},
}

// perLayer are the traced run's metrics. Every workload prints all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"graph.parse_s", "s"},
	{"graph.merge_us", "us"},
	{"graph.components_us", "us"},
	{"graph.reflooded_nodes", "count"},
	{"graph.subcsr_us", "us"},
	{"graph.subcsr_builds", "count"},
	{"dmcs.peel_us", "us"},
	{"dmcs.removals", "count"},
	{"dmcs.peel_allocs", "count"},
	{"engine.snapshot_s", "s"},
	{"engine.hit_us", "us"},
	{"engine.hit_allocs", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.computed", "count"},
	{"engine.collapsed", "count"},
	{"engine.fused", "count"},
	{"engine.invalidated", "count"},
	{"engine.retained", "count"},
	{"engine.apply_us", "us"},
	{"engine.apply_allocs", "count"},
	{"engine.replay_s", "s"},
	{"server.query_us", "us"},
	{"server.apply_us", "us"},
	{"wal.append_us", "us"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.open_s", "s"},
	{"wal.records_replayed", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"query_qps", "1/s"},
	{"round_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"query_p99_us", "us"},
	{"apply_p50_us", "us"},
	{"apply_p99_us", "us"},
	{"recovery_s", "s"},
	{"ckpt_bytes_per_edge", "B"},
	{"wal_bytes_per_op", "B"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"lfr-batch": runLFRBatch,
	"http-zipf": runHTTPZipf,
	"churn-wal": runChurnWAL,
}

// Operation kinds counted per run.
const (
	opQuery = iota
	opBatch
	opApply
	opCheckpoint
	opRecovery
	numOpKinds
)

var opNames = [numOpKinds]string{"query", "batch", "apply", "checkpoint", "recovery"}

type opCount struct{ attempted, failed int }

// setupReps is how many times a run sets the engine up; setup_s is the
// median.
const setupReps = 11

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "lfr-batch, http-zipf or churn-wal")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the measured rounds run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds 1..k) and print each metric's median and quartiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload lfr-batch|http-zipf|churn-wal, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if *steady > 0 {
		os.Exit(steadiness(*workload, *steady, *seconds, *trace))
	}
	os.Exit(runOnce(drive, *workload, *seed, *seconds, *trace == 1))
}

// runOnce runs one workload and prints its result line.
func runOnce(drive func(*bench) error, workload string, seed int64, seconds float64, traced bool) int {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		traced:  traced,
		dir:     dir,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	if traced {
		b.tr = newTracer()
	}
	if err := selfTest(); err != nil {
		b.fail("self-test: %v", err)
	}
	if err := drive(b); err != nil {
		b.fail("%s: %v", workload, err)
	}
	if traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
		if err := b.tr.write(path); err != nil {
			b.fail("write trace: %v", err)
		}
	}
	return b.print()
}

// bench is one run's state: its settings, its accounting and the
// metrics the workload fills in.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string  // scratch directory for this run's data
	tr      *tracer // the run's tracer (nil unless traced)

	ops      [numOpKinds]opCount
	failures int
	e2e      map[string]float64
	layer    map[string]float64

	roundMS, tracedRoundMS []float64
	roundQPS               []float64 // queries per second of query time, per round
	gcCycles, gcPauseMS    []float64
}

// fail records a failed check; the run then reports correct=false.
func (b *bench) fail(format string, args ...any) {
	b.failures++
	if b.failures <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// count records one attempted operation and whether it failed.
func (b *bench) count(kind int, err error) {
	b.ops[kind].attempted++
	if err != nil {
		b.ops[kind].failed++
		if b.ops[kind].failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", opNames[kind], err)
		}
	}
}

// round is what one round of a workload sees.
type round struct {
	tr       *tracer // nil unless the round is traced
	root     int32   // the round's span, parent of its calls
	measured bool    // false for the warm-up round

	queryTime time.Duration // time spent answering queries
	queries   int           // queries answered
}

// served records n queries answered in d.
func (r *round) served(d time.Duration, n int) {
	r.queryTime += d
	r.queries += n
}

// runRounds runs one warm-up round and then measured rounds until the
// run's time is up. A traced run alternates untraced and traced rounds
// and ends on a traced one, so both halves see the same drift; the
// untraced half gives the workload figures and the difference is the
// tracing overhead. fn returns the time the round spent inside the
// program (its operations, without the benchmark's own checks).
func (b *bench) runRounds(fn func(r *round) (time.Duration, error)) error {
	if _, err := fn(&round{root: -1}); err != nil {
		return err
	}
	var ms runtime.MemStats
	start := time.Now()
	for i := 0; ; i++ {
		r := &round{root: -1, measured: true}
		if b.traced && i%2 == 1 {
			r.tr = b.tr
		}
		sp := r.tr.begin("round", -1)
		r.root = sp.id
		gcTaken := b.traced && r.tr == nil // GC figures come from untraced rounds of a traced run
		if gcTaken {
			runtime.ReadMemStats(&ms)
		}
		gc0, pause0 := ms.NumGC, ms.PauseTotalNs
		d, err := fn(r)
		if err != nil {
			return err
		}
		r.tr.end(sp)
		if r.tr != nil {
			b.tracedRoundMS = append(b.tracedRoundMS, millis(d))
		} else {
			b.roundMS = append(b.roundMS, millis(d))
			if r.queries > 0 {
				b.roundQPS = append(b.roundQPS, float64(r.queries)/r.queryTime.Seconds())
			}
		}
		if gcTaken {
			runtime.ReadMemStats(&ms)
			b.gcCycles = append(b.gcCycles, float64(ms.NumGC-gc0))
			b.gcPauseMS = append(b.gcPauseMS, float64(ms.PauseTotalNs-pause0)/1e6)
		}
		if time.Since(start) >= b.seconds && (!b.traced || i%2 == 1) {
			return nil
		}
	}
}

// setup runs build setupReps times, each from the edge-list bytes of
// graph rep%graphs to an engine ready to answer, and records the median
// of each timed part. build returns its parse and engine-open times and
// keeps what the workload needs; heap_mb is the live heap that the kept
// state adds, per graph.
func (b *bench) setup(graphs int, build func(rep int) (parse, open time.Duration, err error)) error {
	var total, parse, open []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		p, o, err := build(i)
		if err != nil {
			return err
		}
		total = append(total, (p + o).Seconds())
		parse = append(parse, p.Seconds())
		open = append(open, o.Seconds())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.e2e["setup_s"] = median(total)
	b.e2e["heap_mb"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6 / float64(graphs)
	b.layer["graph.parse_s"] = median(parse)
	b.layer["engine.snapshot_s"] = median(open)
	return nil
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// print writes the per-kind accounting and the result line, and returns
// the exit status.
func (b *bench) print() int {
	attempted, failed := 0, 0
	for k, c := range b.ops {
		fmt.Printf("ops %-10s attempted=%d failed=%d\n", opNames[k], c.attempted, c.failed)
		attempted += c.attempted
		failed += c.failed
	}
	b.layer["round_ms"] = median(b.roundMS)
	b.layer["query_qps"] = median(b.roundQPS)
	defs, vals := endToEnd, b.e2e
	if b.traced {
		b.layer["runtime.gc_cycles"] = mean(b.gcCycles)
		b.layer["runtime.gc_pause_ms"] = mean(b.gcPauseMS)
		if u := median(b.roundMS); u > 0 {
			b.layer["trace.overhead_pct"] = 100 * (median(b.tracedRoundMS)/u - 1)
		}
		defs, vals = perLayer, b.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !b.traced {
			b.fail("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	correct := b.failures == 0
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(attempted, 1), failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct || failed > 0 || attempted == 0 {
		return 1
	}
	return 0
}

// steadiness runs the workload k times in child processes, seeds 1..k,
// and prints each metric's median, quartiles and spread (the distance
// between the quartiles as a share of the median).
func steadiness(workload string, k int, seconds float64, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	vals := map[string][]float64{}
	var shares []float64
	for s := 1; s <= k; s++ {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(s),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		var res struct {
			Attempted, Failed int
			Metrics           map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: bad result line: %v\n", s, err)
			return 1
		}
		shares = append(shares, float64(res.Failed)/float64(res.Attempted))
		for name, v := range res.Metrics {
			vals[name] = append(vals[name], v.Value)
		}
		fmt.Printf("seed %d: %s\n", s, lastLine(out))
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(vals[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-24s %14.6g %14.6g %14.6g %8.4f\n", name, q1, q2, q3, spread)
	}
	fmt.Printf("failed share per run: %v\n", shares)
	return 0
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	return lines[len(lines)-1]
}
