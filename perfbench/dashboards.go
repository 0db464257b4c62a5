package main

import (
	"fmt"
	"time"

	"streamrel"
)

// dashboards: eight top-10 dashboards over a clickstream on a
// synchronous in-memory engine. ROWS windows are not delta-maintained
// and each CQ excludes a different client address (a predicate on a
// column it does not group by), so no two CQs share a plan: every fire
// re-executes hash aggregation and sort over 2000 rows. Plan execution
// (exec) carries the work; IVM, the scheduler, the WAL and the router
// sit idle. An open-loop reader looks up page titles beside the stream.
type dashboards struct {
	o       options
	in      *clicks
	warm    int
	cqs     []string
	ref     [][]uint64 // ref[cq][fire]: hash of the expected batch
	fireEnd []int      // fireEnd[fire]: one past the row that closes it
	lookups []int32
}

const (
	dashBatch   = 256
	dashCQs     = 8
	dashVisible = 2000
	dashAdvance = 500
)

func newDashboards(o options) (workload, error) {
	// The warm-up fills every CQ's 2000-row window, so each timed fire
	// aggregates a full window.
	warm := 4096
	timed := scaled(o, 122_880, dashBatch)
	d := &dashboards{o: o, in: genClicks(o.seed, warm+timed, 1000), warm: warm}
	for i := 0; i < dashCQs; i++ {
		d.cqs = append(d.cqs, fmt.Sprintf(`SELECT url, count(*) AS hits FROM url_stream
			<VISIBLE %d ROWS ADVANCE %d ROWS> WHERE client_ip <> '%s'
			GROUP BY url ORDER BY hits DESC, url LIMIT 10`, dashVisible, dashAdvance, ipName(int32(i))))
	}
	d.ref = make([][]uint64, dashCQs)
	n := len(d.in.rows)
	for end := dashAdvance; end <= n; end += dashAdvance {
		d.fireEnd = append(d.fireEnd, end)
		lo := max(0, end-dashVisible)
		for i := 0; i < dashCQs; i++ {
			d.ref[i] = append(d.ref[i], hashBatch(d.in.ts[end-1], d.topN(lo, end, int32(i))))
		}
	}
	d.lookups = lookupPlan(o.seed, 1<<14)
	return d, nil
}

func (d *dashboards) timedRows() int { return len(d.in.rows) - d.warm }

// topN is the reference result of CQ excl over rows [lo, hi).
func (d *dashboards) topN(lo, hi int, excl int32) []streamrel.Row {
	var counts [nURLs]int64
	for j := lo; j < hi; j++ {
		if d.in.ip[j] != excl {
			counts[d.in.url[j]]++
		}
	}
	return topURLs(counts[:], 10)
}

func (d *dashboards) round(traced bool) *roundStats {
	r := newRound()
	t0 := time.Now()
	e, err := streamrel.Open(engineConfig(traced))
	if err != nil {
		return r.fail(err)
	}
	defer e.Close()
	if err := setupPages(e, clickDDL); err != nil {
		return r.fail(err)
	}
	cqs := make([]*streamrel.CQ, len(d.cqs))
	for i, q := range d.cqs {
		t := time.Now()
		if cqs[i], err = e.Subscribe(q); err != nil {
			return r.fail(err)
		}
		r.add("streamrel.subscribe_us", usSince(t))
	}
	r.set("setup_s", time.Since(t0).Seconds())
	incremental := 0
	for _, cq := range cqs {
		if cq.Incremental {
			incremental++
		}
	}
	r.set("ivm.incremental_cqs", float64(incremental))

	// The synchronous engine has queued every batch an Append produced
	// by the time it returns, so the producer is also the consumer.
	next := make([]int, len(cqs))
	corrupted := false
	consume := func(sent time.Time, timed bool) {
		for i, cq := range cqs {
			for _, b := range cq.Drain() {
				now := time.Now()
				k := next[i]
				next[i]++
				rows := b.Rows
				if d.o.fault == faultCorruptBatch && timed && !corrupted {
					rows, corrupted = corrupt(rows), true
				}
				r.check(k < len(d.ref[i]) && hashBatch(b.Close.UnixMicro(), rows) == d.ref[i][k],
					"dashboards: cq %d fire %d differs from the reference", i, k)
				if timed {
					r.add("result_ms", float64(now.Sub(sent).Nanoseconds())/1e6)
				}
			}
		}
	}
	rows := d.in.rows
	for lo := 0; lo < d.warm; lo += dashBatch {
		if !r.check(e.Append("url_stream", rows[lo:lo+dashBatch]...) == nil, "warm-up append failed") {
			return r
		}
		consume(time.Now(), false)
	}

	before := gather(e.Metrics())
	mem := startMem()
	lg := startLoad(readInterval, func(k int) error { return lookupPage(e, d.lookups[k%len(d.lookups)]) })
	var spans []appendSpan
	start := time.Now()
	for lo := d.warm; lo < len(rows); lo += dashBatch {
		batch := rows[lo : lo+dashBatch]
		t := time.Now()
		if traced {
			id := uint64(lo/dashBatch + 1)
			err = e.AppendTraced(id, "url_stream", batch...)
			spans = append(spans, appendSpan{id, t.UnixNano(), time.Now().UnixNano()})
		} else {
			err = e.Append("url_stream", batch...)
		}
		r.add("streamrel.append_us", usSince(t))
		if !r.check(err == nil, "append: %v", err) {
			break
		}
		consume(t, true)
	}
	ft := time.Now()
	r.check(e.Flush() == nil, "flush failed")
	r.set("streamrel.flush_ms", msSince(ft))
	r.set("ingest_rows_per_s", float64(d.timedRows())/time.Since(start).Seconds())
	lg.finish(r)
	mem.finish(r, d.timedRows())
	streamLayer(r, before, gather(e.Metrics()), d.timedRows(), len(cqs))
	for i := range cqs {
		r.check(next[i] == len(d.ref[i]), "dashboards: cq %d delivered %d of %d fires", i, next[i], len(d.ref[i]))
	}
	if traced {
		spanSamples(r, e.Traces(), spans)
	}
	return r
}

func (d *dashboards) probes() (map[string]float64, error) {
	out := map[string]float64{}
	// One CQ's SELECT as a snapshot query over exactly the rows of its
	// last window: the plan-execution share of a fire.
	last := len(d.fireEnd) - 1
	end := d.fireEnd[last]
	q := `SELECT url, count(*) AS hits FROM win_scratch WHERE client_ip <> '` + ipName(0) +
		`' GROUP BY url ORDER BY hits DESC, url LIMIT 10`
	us, err := windowQuery(clickScratch, d.in.rows[end-dashVisible:end], q, func(rows []streamrel.Row) bool {
		return hashBatch(d.in.ts[end-1], rows) == d.ref[0][last]
	})
	if err != nil {
		return nil, err
	}
	out["exec.window_query_us_p50"] = us
	if out["sql.parse_us_p50"], err = parseP50(append(d.cqs, pagesQuery)); err != nil {
		return nil, err
	}
	return out, nil
}
