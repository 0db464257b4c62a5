package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"streamrel"
	"streamrel/internal/types"
)

// roundStats is what one round measured. vals are per-round scalars (a
// run reports their median over rounds); smp are per-operation samples
// (a run pools them over rounds before taking percentiles).
type roundStats struct {
	vals      map[string]float64
	smp       map[string][]float64
	attempted int
	failed    int
	errs      []string
}

func newRound() *roundStats {
	return &roundStats{vals: map[string]float64{}, smp: map[string][]float64{}}
}

func (r *roundStats) set(name string, v float64) { r.vals[name] = v }

func (r *roundStats) add(name string, v float64) { r.smp[name] = append(r.smp[name], v) }

// check counts one attempted operation and, when ok is false, a failure.
func (r *roundStats) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// merge adds another goroutine's samples and outcomes to r.
func (r *roundStats) merge(o *roundStats) {
	for k, s := range o.smp {
		r.smp[k] = append(r.smp[k], s...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// fail records an error that ends the round early.
func (r *roundStats) fail(err error) *roundStats {
	r.check(false, "%v", err)
	return r
}

// pooled merges the rounds of one kind: per-round scalars become lists
// (one entry per round) and per-operation samples are concatenated.
type pooled struct {
	vals map[string][]float64
	smp  map[string][]float64
}

func pool(rounds []*roundStats) pooled {
	p := pooled{vals: map[string][]float64{}, smp: map[string][]float64{}}
	for _, r := range rounds {
		for k, v := range r.vals {
			p.vals[k] = append(p.vals[k], v)
		}
		for k, s := range r.smp {
			p.smp[k] = append(p.smp[k], s...)
		}
	}
	return p
}

// median returns the median of one per-round scalar (0 when no round
// set it).
func (p pooled) median(name string) float64 { return quantile(p.vals[name], 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// pct reports the q-quantile of a pooled sample and whether the sample
// holds at least ten values beyond it, the least a percentile needs to
// be worth reporting.
func (p pooled) pct(name string, q float64) (float64, bool) {
	xs := p.smp[name]
	return quantile(xs, q), float64(len(xs))*(1-q) >= 10
}

// endToEnd fills the end-to-end metrics from the untraced rounds and
// returns the names of percentiles resting on too few samples.
func endToEnd(out map[string]metric, u pooled) []string {
	var thin []string
	pct := func(name, sample string, q float64) {
		v, ok := u.pct(sample, q)
		if !ok {
			thin = append(thin, name)
		}
		out[name] = metric{v, "ms"}
	}
	out["setup_s"] = metric{u.median("setup_s"), "s"}
	out["ingest_rows_per_s"] = metric{u.median("ingest_rows_per_s"), "rows/s"}
	pct("result_latency_p50_ms", "result_ms", 0.50)
	pct("query_latency_p50_ms", "query_ms", 0.50)
	out["allocs_per_row"] = metric{u.median("allocs_per_row"), "allocs/row"}
	out["live_heap_mb"] = metric{u.median("live_heap_mb"), "MB"}
	return thin
}

// layerMetrics fills the per-layer metrics. [B] and [M] metrics and the
// Go runtime figures come from the untraced rounds u, span-derived [T]
// metrics from the traced rounds t, and [I] metrics from the probes. A
// layer the workload does not exercise reports 0.
func layerMetrics(out map[string]metric, u, t pooled, probes map[string]float64) []string {
	var thin []string
	pct := func(name, unit string, p pooled, sample string, q float64) {
		v, ok := p.pct(sample, q)
		if !ok && len(p.smp[sample]) > 0 {
			thin = append(thin, name)
		}
		out[name] = metric{v, unit}
	}
	val := func(name, unit string, p pooled) { out[name] = metric{p.median(name), unit} }

	pct("streamrel.append_us_p50", "us", u, "streamrel.append_us", 0.50)
	pct("streamrel.append_us_p99", "us", u, "streamrel.append_us", 0.99)
	pct("streamrel.subscribe_us_p50", "us", u, "streamrel.subscribe_us", 0.50)
	out["streamrel.subscribe_us_max"] = metric{quantile(u.smp["streamrel.subscribe_us"], 1), "us"}
	val("streamrel.flush_ms", "ms", u)
	pct("streamrel.query_us_p50", "us", u, "streamrel.query_us", 0.50)
	val("streamrel.reopen_s", "s", u)
	val("recovery_s", "s", u)
	val("disk_bytes_per_row", "bytes/row", u)
	// Tail latencies vary more between runs on a shared host than any
	// bound could allow, so they are diagnostics here, not gates.
	pct("result_latency_p99_ms", "ms", u, "result_ms", 0.99)
	pct("query_latency_p99_ms", "ms", u, "query_ms", 0.99)

	pct("stream.ingest_self_us_p50", "us", t, "span.ingest_self_us", 0.50)
	pct("stream.enqueue_wait_us_p99", "us", t, "span.enqueue_us", 0.99)
	pct("stream.pickup_wait_us_p50", "us", t, "span.pickup_us", 0.50)
	pct("stream.pickup_wait_us_p99", "us", t, "span.pickup_us", 0.99)
	pct("stream.fire_us_p50", "us", t, "span.fire_us", 0.50)
	pct("stream.fire_us_p99", "us", t, "span.fire_us", 0.99)
	pct("stream.deliver_us_p50", "us", t, "span.deliver_us", 0.50)
	val("stream.fires_per_krow", "count", u)
	val("stream.cqs_per_pipeline", "count", u)
	val("stream.sched_steals_per_krow", "count", u)
	val("stream.sched_parks_per_krow", "count", u)

	val("ivm.incremental_cqs", "count", u)
	val("ivm.groups_touched_per_row", "count", u)
	val("ivm.state_groups", "count", u)

	pct("wal.append_us_p50", "us", t, "span.wal_append_us", 0.50)
	val("wal.group_commit_batches_mean", "count", u)
	val("wal.bytes_per_row", "bytes/row", u)
	val("wal.replay_s", "s", u)

	pct("client.append_rtt_us_p50", "us", u, "client.append_rtt_us", 0.50)
	pct("client.append_rtt_us_p99", "us", u, "client.append_rtt_us", 0.99)
	val("server.command_us_p50", "us", u)
	val("shard.router_append_us_p50", "us", u)
	val("shard.coalesced_batches_mean", "count", u)
	val("shard.row_skew", "ratio", u)
	val("shard.scatter_ms_p50", "ms", u)

	val("go.gc_cycles_per_krow", "count", u)
	val("go.gc_pause_ms", "ms", u)
	if ti := t.median("ingest_rows_per_s"); ti > 0 {
		out["trace.overhead_ratio"] = metric{u.median("ingest_rows_per_s") / ti, "ratio"}
	} else {
		out["trace.overhead_ratio"] = metric{0, "ratio"}
	}
	pct("loadgen.query_late_ms_p99", "ms", u, "query_late_ms", 0.99)

	for _, name := range probeNames {
		out[name.name] = metric{probes[name.name], name.unit}
	}
	return thin
}

// probeNames lists the [I] metrics every workload's probes report.
var probeNames = []struct{ name, unit string }{
	{"exec.window_query_us_p50", "us"},
	{"sql.parse_us_p50", "us"},
	{"wal.encode_us_per_batch", "us"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsync_us_p99", "us"},
	{"server.wire_encode_us_per_batch", "us"},
	{"shard.split_us_per_batch", "us"},
	{"shard.merge_us_p50", "us"},
}

// memPhase brackets the timed phase of a round with runtime.MemStats
// readings for allocs_per_row and the GC figures.
type memPhase struct{ before runtime.MemStats }

func startMem() *memPhase {
	m := &memPhase{}
	runtime.ReadMemStats(&m.before)
	return m
}

// finish records allocs_per_row, go.gc_cycles_per_krow and
// go.gc_pause_ms for rows timed rows, then live_heap_mb after a forced
// GC with the engine still open.
func (m *memPhase) finish(r *roundStats, rows int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("allocs_per_row", float64(after.Mallocs-m.before.Mallocs)/float64(rows))
	r.set("go.gc_cycles_per_krow", float64(after.NumGC-m.before.NumGC)*1000/float64(rows))
	r.set("go.gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.set("live_heap_mb", float64(after.HeapAlloc)/(1<<20))
}

// timeIt runs f and returns its wall time in microseconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// hashBatch fingerprints one window result: its close time and its rows
// in delivery order, each value rendered by its SQL text form.
func hashBatch(closeUS int64, rows []streamrel.Row) uint64 {
	h := fnv.New64a()
	buf := strconv.AppendInt(make([]byte, 0, 64), closeUS, 10)
	for _, r := range rows {
		for _, v := range r {
			buf = append(buf, '\x1f')
			switch v.Type() {
			case types.TypeInt:
				buf = strconv.AppendInt(buf, v.Int(), 10)
			case types.TypeString:
				buf = append(buf, v.Str()...)
			default:
				buf = append(buf, v.String()...)
			}
		}
		buf = append(buf, '\x1e')
		if len(buf) > 512 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// corrupt returns a copy of rows with the first integer value changed;
// the self-tests use it to prove that a wrong result is caught.
func corrupt(rows []streamrel.Row) []streamrel.Row {
	out := make([]streamrel.Row, len(rows))
	copy(out, rows)
	if len(out) == 0 {
		return []streamrel.Row{{streamrel.Int(-1)}}
	}
	r := out[0].Clone()
	for i, v := range r {
		if v.Type() == types.TypeInt {
			r[i] = streamrel.Int(v.Int() + 1)
			break
		}
	}
	out[0] = r
	return out
}
