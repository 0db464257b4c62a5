// Command srbench regenerates the paper's evaluation: every figure and
// quantified claim mapped to an experiment in DESIGN.md §4 (F1, E1–E8),
// plus the engine's own scaling experiments (E9–E15).
//
// Usage:
//
//	srbench                 # run everything at full (laptop) scale
//	srbench -scale 0.1      # quicker pass
//	srbench -only E1,E3     # a subset
//	srbench -list           # show the experiment index
//	srbench -only E9 -json BENCH_fanout.json   # machine-readable results
//	srbench -only E15 -compare BENCH_sched.json  # deltas vs last stamped run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"streamrel/internal/experiments"
)

var index = []struct{ id, what string }{
	{"F1", "Figure 1: windows produce a sequence of tables — window kinds, correctness, throughput"},
	{"E1", "§4 case study: network-security report, store-first vs continuous (the 'orders of magnitude' claim)"},
	{"E2", "§1.1 growth sweep: report latency vs event volume"},
	{"E3", "§2.2 shared 'Jellybean' processing: k CQs with vs without plan sharing"},
	{"E4", "§5 materialized views: periodic refresh vs Active Tables (cost + staleness)"},
	{"E5", "§3.3/§6 stream-table joins: enrichment and Example 5 historical comparison"},
	{"E6", "§4 recovery: rebuild from Active Tables vs recompute from raw archive"},
	{"E7", "§5 map/reduce comparison: successive refreshes over a growing log"},
	{"E8", "§1.2 result-availability delay: batch period vs 1-minute windows"},
	{"E9", "parallel CQ fan-out: k CQs serial vs per-pipeline workers (Config.ParallelCQ)"},
	{"E10", "replication: replica apply-lag quantiles under live ingest (log shipping over loopback TCP)"},
	{"E11", "tracing overhead: ingest throughput with spans off / 1-in-256 sampled / every batch"},
	{"E12", "ingest hot path ladder: rows/s + allocs/row across fan-out, workers, Sync on/off"},
	{"E13", "shard scale-out ladder: keyed ingest rows/s + window fire latency, direct vs router over 1/2/4 shards"},
	{"E14", "incremental maintenance: fire latency vs window width, re-exec vs delta-maintained (internal/ivm)"},
	{"E15", "work-stealing scheduler + plan sharing: 100/1k/10k CQs, registration + ingest + fire latency, serial-equivalence gated"},
	{"E16", "self-observability overhead: ingest throughput with sysmon off / 1s default / 10ms aggressive, allocs/snapshot"},
}

// runners maps each index id to its experiment.
var runners = map[string]func(experiments.Scale) (*experiments.Table, error){
	"F1": experiments.F1, "E1": experiments.E1, "E2": experiments.E2,
	"E3": experiments.E3, "E4": experiments.E4, "E5": experiments.E5,
	"E6": experiments.E6, "E7": experiments.E7, "E8": experiments.E8,
	"E9": experiments.E9, "E10": experiments.E10, "E11": experiments.E11,
	"E12": experiments.E12, "E13": experiments.E13, "E14": experiments.E14,
	"E15": experiments.E15, "E16": experiments.E16,
}

// jsonReport is the machine-readable output format for -json: enough
// context (host, scale, date) for future PRs to track the throughput
// trajectory across runs.
type jsonReport struct {
	Suite      string               `json:"suite"`
	Scale      float64              `json:"scale"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GitSHA     string               `json:"git_sha,omitempty"`
	GitDirty   bool                 `json:"git_dirty,omitempty"`
	Started    time.Time            `json:"started"`
	ElapsedMS  int64                `json:"elapsed_ms"`
	Tables     []*experiments.Table `json:"tables"`
	Durations  map[string]int64     `json:"experiment_ms"`
}

// gitStamp returns the short HEAD sha and whether the tree is dirty, so
// BENCH files become a trajectory: each result names the exact code it
// measured. Outside a git checkout both are zero values.
func gitStamp() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", false
	}
	sha = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain").Output()
	if err == nil && len(strings.TrimSpace(string(st))) > 0 {
		dirty = true
	}
	return sha, dirty
}

// stampedPath derives the trajectory filename for a report, in the
// bench_canonical-<UTCtimestamp>_<gitsha>[-dirty] style:
// BENCH_ingest.json → BENCH_ingest-20060102T150405Z_abc1234-dirty.json.
// Dirty-tree stamps land under bench-stamps/ (gitignored scratch space)
// so uncommitted runs never end up checked in next to the canonical
// trajectory files; clean stamps stay beside the base file.
func stampedPath(base string, started time.Time, sha string, dirty bool) string {
	ext := filepath.Ext(base)
	stem := strings.TrimSuffix(base, ext)
	stamp := started.UTC().Format("20060102T150405Z")
	name := fmt.Sprintf("%s-%s", stem, stamp)
	if sha != "" {
		name += "_" + sha
		if dirty {
			name += "-dirty"
		}
	}
	name += ext
	if dirty {
		return filepath.Join(filepath.Dir(base), "bench-stamps", filepath.Base(name))
	}
	return name
}

// baselineFor picks the comparison baseline for -compare: the most recent
// stamped sibling of the named trajectory file — bench-stamps/ scratch
// runs and clean stamps beside the base are both considered, newest
// modification time wins — falling back to the committed base file
// itself when no stamped run exists yet.
func baselineFor(base string) (string, error) {
	ext := filepath.Ext(base)
	stem := strings.TrimSuffix(filepath.Base(base), ext)
	var newest string
	var newestMod time.Time
	for _, dir := range []string{filepath.Join(filepath.Dir(base), "bench-stamps"), filepath.Dir(base)} {
		matches, _ := filepath.Glob(filepath.Join(dir, stem+"-*"+ext))
		for _, m := range matches {
			fi, err := os.Stat(m)
			if err != nil {
				continue
			}
			if newest == "" || fi.ModTime().After(newestMod) {
				newest, newestMod = m, fi.ModTime()
			}
		}
	}
	if newest != "" {
		return newest, nil
	}
	if _, err := os.Stat(base); err != nil {
		return "", fmt.Errorf("no baseline: %s has no stamped runs and does not exist itself", base)
	}
	return base, nil
}

// compareReport prints per-metric deltas between a baseline report and
// this run. It states facts (old → new, Δ%) without judging direction:
// rows_per_s metrics improve upward, _seconds and _ms metrics downward,
// and the reader (or -budget) decides what counts as a regression.
func compareReport(path string, tables []*experiments.Table) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old jsonReport
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	oldM := map[string]float64{}
	for _, t := range old.Tables {
		for k, v := range t.Metrics {
			oldM[k] = v
		}
	}
	newM := map[string]float64{}
	for _, t := range tables {
		for k, v := range t.Metrics {
			newM[k] = v
		}
	}
	order := make([]string, 0, len(newM))
	for k := range newM {
		order = append(order, k)
	}
	sort.Strings(order)
	fmt.Printf("\ncompare vs %s (sha %s, %s):\n", path, old.GitSHA, old.Started.Format("2006-01-02"))
	matched := 0
	for _, k := range order {
		ov, ok := oldM[k]
		if !ok {
			fmt.Printf("  %-44s %12s -> %12.3f  (new metric)\n", k, "-", newM[k])
			continue
		}
		matched++
		nv := newM[k]
		switch {
		case ov == 0 && nv == 0:
			fmt.Printf("  %-44s %12.3f -> %12.3f\n", k, ov, nv)
		case ov == 0:
			fmt.Printf("  %-44s %12.3f -> %12.3f  (baseline zero)\n", k, ov, nv)
		default:
			fmt.Printf("  %-44s %12.3f -> %12.3f  %+7.1f%%\n", k, ov, nv, (nv-ov)/ov*100)
		}
	}
	stale := 0
	for k := range oldM {
		if _, ok := newM[k]; !ok {
			stale++
		}
	}
	if stale > 0 {
		fmt.Printf("  (%d baseline metrics not measured this run — rerun the matching experiments to compare them)\n", stale)
	}
	if matched == 0 {
		return fmt.Errorf("compare: no overlapping metrics between this run and %s — wrong baseline file for -only selection?", path)
	}
	return nil
}

// checkBudget compares every metric the run produced against the maxima
// in a checked-in budget file (metric name → max allowed value). Metrics
// absent from the budget are unconstrained; budget entries the run didn't
// produce warn loudly on stderr but don't fail (a small -scale run may
// legitimately skip rungs) — a silently vanished metric must never read
// as a passing gate.
func checkBudget(path string, tables []*experiments.Table) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var budget map[string]float64
	if err := json.Unmarshal(data, &budget); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	got := map[string]float64{}
	for _, t := range tables {
		for k, v := range t.Metrics {
			got[k] = v
		}
	}
	var failures []string
	missing := 0
	for name, limit := range budget {
		v, ok := got[name]
		if !ok {
			missing++
			fmt.Fprintf(os.Stderr,
				"srbench: WARNING: budget key %q was not measured this run (limit %g) — "+
					"the gate did not check it; run the experiment that produces it "+
					"(or at a scale that does), or prune the key from the budget file\n",
				name, limit)
			continue
		}
		if v > limit {
			failures = append(failures, fmt.Sprintf("%s = %.3f exceeds budget %.3f", name, v, limit))
		} else {
			fmt.Printf("budget: %s = %.3f within %.3f\n", name, v, limit)
		}
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "srbench: WARNING: %d of %d budget keys unchecked this run\n",
			missing, len(budget))
	}
	if len(failures) > 0 {
		return fmt.Errorf("budget exceeded:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// parseOnly turns the -only list into a set of experiment ids, refusing
// any id the index does not know and naming the valid ones. An empty list
// selects everything (an empty set).
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	known := map[string]bool{}
	ids := make([]string, len(index))
	for i, e := range index {
		known[e.id] = true
		ids[i] = e.id
	}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q in -only; valid ids: %s", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	return want, nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "experiment size multiplier (1.0 = full laptop scale)")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	stamp := flag.Bool("stamp", false, "additionally write a timestamped+git-sha'd copy of the -json file")
	budgetPath := flag.String("budget", "", "compare run metrics against this budget file (metric → max); exit non-zero on breach")
	comparePath := flag.String("compare", "", "print per-metric deltas vs the most recent stamped run of this trajectory file (falls back to the file itself)")
	flag.Parse()

	if *list {
		for _, e := range index {
			fmt.Printf("%-4s %s\n", e.id, e.what)
		}
		return
	}

	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srbench: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("streamrel experiment suite (scale %.2g)\n", *scale)
	fmt.Printf("reproducing: Franklin et al., \"Continuous Analytics\", CIDR 2009\n\n")
	sha, dirty := gitStamp()
	report := &jsonReport{
		Suite:      "streamrel",
		Scale:      *scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     sha,
		GitDirty:   dirty,
		Started:    time.Now().UTC(),
		Durations:  map[string]int64{},
	}
	start := time.Now()
	for _, e := range index {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		run := runners[e.id]
		t0 := time.Now()
		table, err := run(experiments.Scale(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		took := time.Since(t0)
		fmt.Println(table.String())
		fmt.Printf("(%s took %s)\n\n", e.id, took.Round(time.Millisecond))
		report.Tables = append(report.Tables, table)
		report.Durations[e.id] = took.Milliseconds()
	}
	report.ElapsedMS = time.Since(start).Milliseconds()
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
		if *stamp {
			sp := stampedPath(*jsonPath, report.Started, sha, dirty)
			if dir := filepath.Dir(sp); dir != "." {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "json: %v\n", err)
					os.Exit(1)
				}
			}
			if err := os.WriteFile(sp, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "json: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", sp)
		}
	}
	if *comparePath != "" {
		base, err := baselineFor(*comparePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(1)
		}
		if err := compareReport(base, report.Tables); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
	if *budgetPath != "" {
		if err := checkBudget(*budgetPath, report.Tables); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
}
