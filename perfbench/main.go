// Command perfbench is streamrel's benchmark. It drives one workload
// against the engine for a fixed time, checks every result against a
// reference computed in plain Go from the same generated inputs, and
// prints one JSON line of end-to-end metrics (--trace 0) or per-layer
// metrics (--trace 1). WORKLOADS.md explains the workloads and which
// layer metric should move which end-to-end metric.
//
//	bash perfbench/run.sh --workload dashboards --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// scale multiplies the timed row counts: 1 from the command line, a
	// twentieth in the self-tests.
	scale float64
	// fault deliberately breaks one result so the self-tests can prove
	// the output checks catch it. Never set on the command line.
	fault fault
}

type fault int

const (
	faultNone fault = iota
	// faultCorruptBatch alters one delivered result batch before it is
	// checked.
	faultCorruptBatch
	// faultDropAckedRow withholds one row from the engine while the
	// reference counts it as acknowledged.
	faultDropAckedRow
)

// workload is one benchmark scenario. newWorkload generates every input
// and reference result from the seed before any clock starts; round then
// runs one complete set-up → warm-up → timed phase → check → tear-down
// cycle on a fresh engine, timing the same number of rows every time.
type workload interface {
	round(traced bool) *roundStats
	// probes times calls into single layers, fed the workload's own
	// inputs ([I] metrics). It runs after the timed rounds.
	probes() (map[string]float64, error)
	// timedRows is the number of rows every round times.
	timedRows() int
}

var workloads = map[string]func(o options) (workload, error){
	"dashboards": newDashboards,
	"tenants":    newTenants,
	"archive":    newArchive,
	"sharded":    newSharded,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: dashboards, tenants, archive or sharded")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from traced rounds, 0 end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data directories")
	flag.Parse()
	o.trace, o.scale = traceFlag == 1, 1
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	res, info, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	infoLine, _ := json.Marshal(map[string]any{"info": info})
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(infoLine))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run: rounds until o.seconds have passed
// (at least minRounds of each kind), then the layer probes when tracing.
func run(o options) (*result, map[string]any, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	w, err := mk(o)
	if err != nil {
		return nil, nil, err
	}
	const minRounds = 3
	var plain, traced []*roundStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		tr := o.trace && i%2 == 1
		runtime.GC()
		r := w.round(tr)
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if r.failed > 0 {
			break
		}
		if time.Now().After(deadline) && len(plain) >= minRounds && (!o.trace || len(traced) >= minRounds) {
			break
		}
	}

	res := &result{Metrics: map[string]metric{}}
	var errs []string
	for _, r := range append(append([]*roundStats{}, plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		errs = append(errs, r.errs...)
	}
	res.Correct = res.Failed == 0
	up, tp := pool(plain), pool(traced)
	var thin []string
	if o.trace {
		probes, err := w.probes()
		if err != nil {
			return nil, nil, fmt.Errorf("probes: %w", err)
		}
		thin = layerMetrics(res.Metrics, up, tp, probes)
	} else {
		thin = endToEnd(res.Metrics, up)
	}
	info := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"timed_rows": w.timedRows(),
		"rounds":     len(plain) + len(traced),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"error_rate": float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	if len(errs) > 0 {
		info["errors"] = errs
	}
	info["round_ingest_rows_per_s"] = up.vals["ingest_rows_per_s"]
	info["git_sha"], info["git_dirty"] = gitStamp()
	if len(thin) > 0 {
		sort.Strings(thin)
		info["too_few_samples"] = thin
	}
	return res, info, nil
}

// gitStamp returns the source revision and dirty flag the Go toolchain
// stamped into the binary when it was built inside a git checkout, or
// "unknown" and nil.
func gitStamp() (string, any) {
	sha, dirty := "unknown", any(nil)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return sha, dirty
}
