package main

import (
	"fmt"
	"strconv"

	"streamrel"
	"streamrel/internal/metrics"
	"streamrel/internal/sql"
)

// appendSpan is the benchmark's own [B] span around one traced Append:
// the engine's spans carrying the same trace ID are its children.
type appendSpan struct {
	id         uint64
	start, end int64 // wall-clock nanoseconds
}

// spanSamples folds the engine's completed spans into per-stage duration
// samples (microseconds) and the ingest self time of each traced append:
// the append's wall time minus the part of it covered by the engine's
// spans for the same batch (enqueue, fire, delivery, WAL write and
// fsync). Appends whose trace may have lost spans to ring eviction are
// skipped.
func spanSamples(r *roundStats, spans []streamrel.TraceSpan, appends []appendSpan) {
	byTrace := map[uint64][]streamrel.TraceSpan{}
	var minID uint64
	for i, s := range spans {
		if i == 0 || s.Trace < minID {
			minID = s.Trace
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
		us := float64(s.Dur) / 1e3
		switch s.Stage {
		case streamrel.StageEnqueue:
			r.add("span.enqueue_us", us)
		case streamrel.StagePickup:
			r.add("span.pickup_us", us)
		case streamrel.StageWindowFire:
			r.add("span.fire_us", us)
		case streamrel.StageCQDeliver:
			r.add("span.deliver_us", us)
		case streamrel.StageWALAppend:
			r.add("span.wal_append_us", us)
		case streamrel.StageWALFsync:
			r.add("span.wal_fsync_us", us)
		}
	}
	evicted := len(spans) >= traceRing
	for _, a := range appends {
		if evicted && a.id <= minID {
			continue
		}
		var ivs [][2]int64
		for _, s := range byTrace[a.id] {
			lo := s.Start * 1000
			hi := lo + s.Dur
			if lo < a.start {
				lo = a.start
			}
			if hi > a.end {
				hi = a.end
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		r.add("span.ingest_self_us", float64(a.end-a.start-covered(ivs))/1e3)
	}
}

// covered returns the total length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	for i := 1; i < len(ivs); i++ { // insertion sort: a handful per batch
		for j := i; j > 0 && ivs[j][0] < ivs[j-1][0]; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// traceRing is the span ring size of traced rounds: large enough that a
// round's spans are all retained (spanSamples checks).
const traceRing = 1 << 17

// engineConfig is the deployment configuration of a round's engine:
// untraced rounds switch tracing off, traced rounds record every batch.
func engineConfig(traced bool) streamrel.Config {
	if traced {
		return streamrel.Config{TraceSampleEvery: 1, TraceRingSpans: traceRing}
	}
	return streamrel.Config{TraceSampleEvery: -1}
}

// snap is a point-in-time copy of the series of one or more registries.
type snap map[string]*metrics.Sample

func gather(regs ...*metrics.Registry) snap {
	s := snap{}
	for i, reg := range regs {
		for _, smp := range reg.Gather() {
			s[strconv.Itoa(i)+"|"+smp.ID()] = smp
		}
	}
	return s
}

func hasLabel(smp *metrics.Sample, key, value string) bool {
	for _, l := range smp.Labels {
		if l.Key == key && l.Value == value {
			return true
		}
	}
	return false
}

// sum adds up the values of every counter or gauge series called name.
func (s snap) sum(name string) float64 { return s.sumWhere(name, "", "") }

// sumWhere is sum over the series that carry the label (an empty key
// matches all).
func (s snap) sumWhere(name, key, value string) float64 {
	var v float64
	for _, smp := range s {
		if smp.Name == name && (key == "" || hasLabel(smp, key, value)) {
			v += smp.Value
		}
	}
	return v
}

// delta is the growth of a counter summed over its series between two
// snapshots.
func delta(before, after snap, name string) float64 { return deltaWhere(before, after, name, "", "") }

func deltaWhere(before, after snap, name, key, value string) float64 {
	return after.sumWhere(name, key, value) - before.sumWhere(name, key, value)
}

// histDelta merges the observations a histogram gained between two
// snapshots over every series called name that carries the label (an
// empty key matches all).
func histDelta(before, after snap, name, key, value string) *metrics.Sample {
	var out *metrics.Sample
	for id, a := range after {
		if a.Name != name || a.Kind != metrics.KindHistogram || (key != "" && !hasLabel(a, key, value)) {
			continue
		}
		if out == nil {
			out = &metrics.Sample{Name: name, Kind: metrics.KindHistogram,
				Buckets: make([]metrics.Bucket, len(a.Buckets))}
			for i, b := range a.Buckets {
				out.Buckets[i].UpperBound = b.UpperBound
			}
		}
		b := before[id]
		out.Count += a.Count
		out.Sum += a.Sum
		if b != nil {
			out.Count -= b.Count
			out.Sum -= b.Sum
		}
		for i := range a.Buckets {
			out.Buckets[i].Count += a.Buckets[i].Count
			if b != nil {
				out.Buckets[i].Count -= b.Buckets[i].Count
			}
		}
	}
	return out
}

// histQuantile is the q-quantile of a merged histogram delta, 0 when it
// holds no observations.
func histQuantile(h *metrics.Sample, q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Quantile(q)
}

func histMean(h *metrics.Sample) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// streamLayer records the stream-runtime and IVM [M] metrics of the
// timed phase: fires, scheduler steals and parks, and IVM groups
// touched per timed row; CQs per pipeline and IVM state size at its end.
func streamLayer(r *roundStats, before, after snap, rows, cqs int) {
	perK := func(name string) float64 { return delta(before, after, name) * 1000 / float64(rows) }
	r.set("stream.fires_per_krow", perK("streamrel_pipeline_windows_total"))
	r.set("stream.sched_steals_per_krow", perK("streamrel_sched_steals_total"))
	r.set("stream.sched_parks_per_krow", perK("streamrel_sched_parks_total"))
	r.set("ivm.groups_touched_per_row", delta(before, after, "streamrel_ivm_groups_touched_total")/float64(rows))
	r.set("ivm.state_groups", after.sum("streamrel_ivm_state_groups"))
	// streamrel_stream_pipelines counts one per CQ; a plan-sharing group
	// runs one host pipeline for all its subscribers.
	running := after.sum("streamrel_stream_pipelines") - after.sum("streamrel_plan_subscribers") +
		after.sum("streamrel_plan_groups")
	if running > 0 {
		r.set("stream.cqs_per_pipeline", float64(cqs)/running)
	}
}

// windowQuery creates the scratch table win_scratch with ddl in a fresh
// in-memory engine, loads one window's rows into it and returns the
// median wall time of running q over it, after checking q's result once.
func windowQuery(ddl string, rows []streamrel.Row, q string, ok func([]streamrel.Row) bool) (float64, error) {
	e, err := streamrel.Open(streamrel.Config{TraceSampleEvery: -1})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	if _, err := e.Exec(ddl); err != nil {
		return 0, err
	}
	if err := e.BulkInsert("win_scratch", rows); err != nil {
		return 0, err
	}
	res, err := e.Query(q)
	if err != nil {
		return 0, err
	}
	if !ok(res.Data) {
		return 0, fmt.Errorf("window query result differs from the reference")
	}
	var us []float64
	for i := 0; i < 200; i++ {
		var qerr error
		us = append(us, timeIt(func() { _, qerr = e.Query(q) }))
		if qerr != nil {
			return 0, qerr
		}
	}
	return quantile(us, 0.5), nil
}

// parseP50 is the median time sql.Parse takes over the workload's query
// texts.
func parseP50(texts []string) (float64, error) {
	var us []float64
	for i := 0; i < 50; i++ {
		for _, t := range texts {
			var err error
			us = append(us, timeIt(func() { _, err = sql.Parse(t) }))
			if err != nil {
				return 0, err
			}
		}
	}
	return quantile(us, 0.5), nil
}
