// Command bench runs the repository's Go benchmarks with a pinned
// -benchtime and records ns/op and allocs/op per benchmark in a JSON
// file, so the performance trajectory of the hot paths is checked in
// next to the code (BENCH_2.json is the CSR-migration baseline,
// BENCH_3.json the query-scoped SubCSR/arena baseline, BENCH_4.json the
// dynamic-update suite, BENCH_5.json the parallel serving suite,
// BENCH_6.json the intra-query parallelism suite: whale-component
// peels and skewed fused batches swept across -cpu, BENCH_8.json the
// query-under-churn suite: hit ratio and computed-search p99 recorded
// as custom metrics under component-scoped cache invalidation).
//
// Custom b.ReportMetric values (e.g. "0.95 hit_ratio", "135745 p99_ns")
// are parsed off each benchmark line and recorded per benchmark under
// "metrics" in the JSON.
//
// Usage:
//
//	go run ./cmd/bench                       # serving + update + whale + churn suite -> BENCH_8.json
//	go run ./cmd/bench -cpu 1,2,4,8          # same, swept across GOMAXPROCS
//	go run ./cmd/bench -bench . -pkgs ./...  # everything (slow)
//
// Benchmark names keep testing's -N GOMAXPROCS suffix (BenchmarkFoo-8;
// testing omits the suffix at GOMAXPROCS=1), so one benchmark swept
// across -cpu 1,2,4 records three distinct entries — BenchmarkFoo,
// BenchmarkFoo-2, BenchmarkFoo-4 — instead of silently overwriting
// itself in the JSON map.
//
// -baseline merges a previously recorded report into the output (under
// "baseline_ns_per_op") and computes per-benchmark speedups, so a single
// JSON artifact shows before/after. Baselines recorded before the
// suffix was kept are still matched by falling back to the
// suffix-stripped name.
//
// -gate enforces allocation budgets: "-gate BenchmarkName=N" (comma
// separated, suffix-matched against package-qualified names, ignoring
// the -N GOMAXPROCS suffix — a swept benchmark must pass its budget at
// every GOMAXPROCS) exits non-zero when a benchmark allocates more than
// N allocs/op. CI uses it to fail when steady-state engine query
// serving — serial or parallel — starts allocating.
//
// -metricgate enforces custom-metric budgets: "-metricgate
// Name:metric>=Min" or "Name:metric<=Max" (comma separated, matched
// like -gate) exits non-zero when the named benchmark's reported metric
// violates the bound. CI uses it to fail when the warm-majority churn
// hit ratio drops below its pinned floor — the component-scoped-epochs
// acceptance criterion.
//
// -ratiogate enforces pairwise time budgets: "-ratiogate A<=1.25xB"
// (comma separated) exits non-zero when benchmark A's ns/op exceeds
// 1.25 times benchmark B's at any GOMAXPROCS both were swept across —
// the A-8 entry is compared against B-8, the suffixless entry against
// the suffixless entry. CI uses it to fail when the fused skewed batch
// falls behind the per-query fan-out ("-ratiogate
// BenchmarkEngineSkewedBatchFused<=1.25xBenchmarkEngineSkewedBatchFanout").
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// benchLine matches standard testing.B output with -benchmem:
// BenchmarkName-8   123   4567 ns/op   89 B/op   7 allocs/op
// The -8 GOMAXPROCS suffix is captured and kept as part of the recorded
// name; stripping it would make a -cpu sweep overwrite itself.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:.*?\s([0-9]+) B/op\s+([0-9]+) allocs/op)?`)

// metricPair matches one "value unit" measurement on a benchmark line.
// testing prints b.ReportMetric values in exactly this shape between
// ns/op and the -benchmem columns; ns/op, B/op and allocs/op themselves
// are skipped when collecting custom metrics.
var metricPair = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?) ([A-Za-z_][A-Za-z0-9_/%.-]*)`)

// procSuffix strips the GOMAXPROCS suffix for baseline fallback and
// gate matching.
var procSuffix = regexp.MustCompile(`-\d+$`)

type report struct {
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"num_cpu"`
	Benchtime   string             `json:"benchtime"`
	CPUList     string             `json:"cpu,omitempty"`
	Packages    []string           `json:"packages"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values per benchmark (e.g.
	// hit_ratio, p99_ns for the query-under-churn suite).
	Metrics map[string]map[string]float64 `json:"metrics,omitempty"`
	// BaselineNsPerOp and Speedup are present only when -baseline is
	// given: the prior report's numbers and new-vs-old ratios for the
	// benchmarks both runs contain.
	BaselineNsPerOp     map[string]float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp map[string]float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup             map[string]float64 `json:"speedup,omitempty"`
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		out        = flag.String("out", "BENCH_8.json", "output JSON path")
		benchtime  = flag.String("benchtime", "200ms", "go test -benchtime value (pinned for comparability)")
		bench      = flag.String("bench", "Weighted|SmallQueries|EngineApply|UnderChurn|EngineParallel|HotKeyHerd|Whale|SkewedBatch", "go test -bench regex")
		pkgs       = flag.String("pkgs", "./internal/dmcs,./internal/engine", "comma-separated package patterns")
		cpu        = flag.String("cpu", "", "go test -cpu list (e.g. 1,2,4,8); empty runs at GOMAXPROCS only")
		baseline   = flag.String("baseline", "", "prior report JSON to merge as the before numbers")
		gate       = flag.String("gate", "", "comma-separated Name=MaxAllocs budgets enforced on allocs/op")
		metricgate = flag.String("metricgate", "", "comma-separated Name:metric>=Min or Name:metric<=Max bounds on custom metrics")
		ratiogate  = flag.String("ratiogate", "", "comma-separated A<=1.25xB pairwise ns/op budgets, matched per GOMAXPROCS suffix")
	)
	flag.Parse()

	patterns := strings.Split(*pkgs, ",")
	args := []string{"test", "-run=NONE", "-bench", *bench, "-benchtime", *benchtime, "-benchmem"}
	if *cpu != "" {
		args = append(args, "-cpu", *cpu)
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		fail("%v", err)
	}

	rep := report{
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Benchtime:   *benchtime,
		CPUList:     *cpu,
		Packages:    patterns,
		NsPerOp:     map[string]float64{},
		AllocsPerOp: map[string]float64{},
		Metrics:     map[string]map[string]float64{},
	}
	pkg := ""
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			continue
		}
		name := m[1] + m[2] // keep the -N GOMAXPROCS suffix: one entry per swept proc count
		if pkg != "" {
			name = pkg + "." + name
		}
		rep.NsPerOp[name] = ns
		if m[6] != "" {
			if allocs, err := strconv.ParseFloat(m[6], 64); err == nil {
				rep.AllocsPerOp[name] = allocs
			}
		}
		for _, mp := range metricPair.FindAllStringSubmatch(line, -1) {
			unit := mp[2]
			if unit == "ns/op" || unit == "B/op" || unit == "allocs/op" {
				continue
			}
			if v, err := strconv.ParseFloat(mp[1], 64); err == nil {
				if rep.Metrics[name] == nil {
					rep.Metrics[name] = map[string]float64{}
				}
				rep.Metrics[name][unit] = v
			}
		}
	}
	if len(rep.NsPerOp) == 0 {
		fail("no benchmark results parsed")
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fail("baseline: %v", err)
		}
		var base report
		if err := json.Unmarshal(data, &base); err != nil {
			fail("baseline: %v", err)
		}
		rep.BaselineNsPerOp = base.NsPerOp
		rep.BaselineAllocsPerOp = base.AllocsPerOp
		// Index the baseline by suffix-stripped name too, so a baseline
		// recorded at a different GOMAXPROCS (-8 there, -16 here) or
		// before the suffix was kept still matches. A stripped name that
		// maps to several baseline entries (a -cpu sweep) is ambiguous
		// and only matched exactly.
		strippedBase := map[string]float64{}
		ambiguous := map[string]bool{}
		for name, ns := range base.NsPerOp {
			bare := procSuffix.ReplaceAllString(name, "")
			if _, dup := strippedBase[bare]; dup {
				ambiguous[bare] = true
			}
			strippedBase[bare] = ns
		}
		rep.Speedup = map[string]float64{}
		for name, ns := range rep.NsPerOp {
			old, ok := base.NsPerOp[name]
			if !ok {
				bare := procSuffix.ReplaceAllString(name, "")
				if !ambiguous[bare] {
					old, ok = strippedBase[bare]
				}
			}
			if ok && ns > 0 {
				rep.Speedup[name] = old / ns
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.NsPerOp))

	violations := 0
	if *gate != "" {
		for _, g := range strings.Split(*gate, ",") {
			name, limitStr, ok := strings.Cut(strings.TrimSpace(g), "=")
			if !ok {
				fail("bad -gate entry %q (want Name=MaxAllocs)", g)
			}
			limit, err := strconv.ParseFloat(limitStr, 64)
			if err != nil {
				fail("bad -gate limit %q: %v", limitStr, err)
			}
			matched := false
			for full, allocs := range rep.AllocsPerOp {
				bare := procSuffix.ReplaceAllString(full, "")
				if full == name || bare == name ||
					strings.HasSuffix(full, "."+name) || strings.HasSuffix(bare, "."+name) {
					matched = true
					if allocs > limit {
						fmt.Fprintf(os.Stderr, "bench: GATE FAILED %s: %.0f allocs/op > %.0f\n", full, allocs, limit)
						violations++
					} else {
						fmt.Printf("gate ok: %s %.0f allocs/op <= %.0f\n", full, allocs, limit)
					}
				}
			}
			if !matched {
				fmt.Fprintf(os.Stderr, "bench: GATE FAILED %s: benchmark not found in results\n", name)
				violations++
			}
		}
	}

	if *metricgate != "" {
		for _, g := range strings.Split(*metricgate, ",") {
			entry := strings.TrimSpace(g)
			op, min := ">=", true
			target, boundStr, ok := strings.Cut(entry, ">=")
			if !ok {
				op, min = "<=", false
				target, boundStr, ok = strings.Cut(entry, "<=")
			}
			if !ok {
				fail("bad -metricgate entry %q (want Name:metric>=Min or Name:metric<=Max)", entry)
			}
			name, metric, ok := strings.Cut(strings.TrimSpace(target), ":")
			if !ok {
				fail("bad -metricgate target %q (want Name:metric)", target)
			}
			bound, err := strconv.ParseFloat(strings.TrimSpace(boundStr), 64)
			if err != nil {
				fail("bad -metricgate bound %q: %v", boundStr, err)
			}
			matched := false
			for full, metrics := range rep.Metrics {
				bare := procSuffix.ReplaceAllString(full, "")
				if full != name && bare != name &&
					!strings.HasSuffix(full, "."+name) && !strings.HasSuffix(bare, "."+name) {
					continue
				}
				v, have := metrics[metric]
				if !have {
					continue
				}
				matched = true
				if (min && v < bound) || (!min && v > bound) {
					fmt.Fprintf(os.Stderr, "bench: METRIC GATE FAILED %s: %s %v violates %s %v\n", full, metric, v, op, bound)
					violations++
				} else {
					fmt.Printf("metric gate ok: %s %s %v %s %v\n", full, metric, v, op, bound)
				}
			}
			if !matched {
				fmt.Fprintf(os.Stderr, "bench: METRIC GATE FAILED %s: metric %s not found in results\n", name, metric)
				violations++
			}
		}
	}

	if *ratiogate != "" {
		for _, g := range strings.Split(*ratiogate, ",") {
			entry := strings.TrimSpace(g)
			left, rest, ok := strings.Cut(entry, "<=")
			if !ok {
				fail("bad -ratiogate entry %q (want A<=1.25xB)", entry)
			}
			factorStr, right, ok := strings.Cut(rest, "x")
			if !ok {
				fail("bad -ratiogate entry %q (want A<=1.25xB)", entry)
			}
			factor, err := strconv.ParseFloat(factorStr, 64)
			if err != nil || factor <= 0 {
				fail("bad -ratiogate factor %q in %q", factorStr, entry)
			}
			a := nsBySuffix(rep.NsPerOp, strings.TrimSpace(left))
			b := nsBySuffix(rep.NsPerOp, strings.TrimSpace(right))
			compared := 0
			for suffix, ansOp := range a {
				bnsOp, ok := b[suffix]
				if !ok {
					continue
				}
				compared++
				if ansOp > factor*bnsOp {
					fmt.Fprintf(os.Stderr, "bench: RATIO GATE FAILED %s%s: %.0f ns/op > %.2f x %.0f ns/op\n",
						strings.TrimSpace(left), suffix, ansOp, factor, bnsOp)
					violations++
				} else {
					fmt.Printf("ratio gate ok: %s%s %.0f ns/op <= %.2f x %.0f ns/op\n",
						strings.TrimSpace(left), suffix, ansOp, factor, bnsOp)
				}
			}
			if compared == 0 {
				fmt.Fprintf(os.Stderr, "bench: RATIO GATE FAILED %s: no GOMAXPROCS suffix has results for both sides\n", entry)
				violations++
			}
		}
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// nsBySuffix collects every recorded result whose suffix-stripped,
// package-qualified name matches name, keyed by its -N GOMAXPROCS
// suffix ("" at GOMAXPROCS=1) — the ratio gate compares like against
// like across a -cpu sweep.
func nsBySuffix(nsPerOp map[string]float64, name string) map[string]float64 {
	out := map[string]float64{}
	for full, ns := range nsPerOp {
		suffix := procSuffix.FindString(full)
		bare := strings.TrimSuffix(full, suffix)
		if bare == name || strings.HasSuffix(bare, "."+name) {
			out[suffix] = ns
		}
	}
	return out
}
