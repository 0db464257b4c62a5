package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"streamrel"
)

// tenants: 1000 dashboards of many tenants over one clickstream, on an
// in-memory engine with the work-stealing scheduler on (ParallelCQ, the
// streamreld -parallel-cq setting). Time windows are delta-maintained,
// and the mix is ~90% identical or subsumed CQs (a residual filter on the
// grouped column), ~5% with other VISIBLE extents over the same ADVANCE
// and ~5% unique plans. Plan sharing, slice sharing, IVM, the scheduler
// and result fan-out carry the work; plan execution is nearly idle.
type tenants struct {
	o       options
	in      *clicks
	warm    int
	shapes  []tenantShape
	cqShape []int      // cqShape[cq]: index into shapes
	closes  []int64    // every window close the input fires
	ref     [][]uint64 // ref[shape][close]: hash of the expected batch
	lookups []int32
}

type tenantShape struct {
	sql     string
	visible int64 // seconds
	url     int32 // residual url filter, -1 for none
	ip      int32 // client_ip filter, -1 for none
	limit   int   // 0: no LIMIT
}

const (
	tenantBatch   = 256
	tenantStepUS  = 2000 // 500 clicks per event-time second
	tenantAdvance = 10_000_000
	tenantCQs     = 1000
	// tenantMailbox is the ParallelCQ mailbox bound in micro-batches.
	tenantMailbox = 16
)

func (s tenantShape) text() string {
	q := fmt.Sprintf("SELECT url, count(*) AS hits FROM url_stream <VISIBLE '%d seconds' ADVANCE '10 seconds'>", s.visible)
	if s.url >= 0 {
		q += fmt.Sprintf(" WHERE url = '%s'", urlName(s.url))
	}
	if s.ip >= 0 {
		q += fmt.Sprintf(" WHERE client_ip = '%s'", ipName(s.ip))
	}
	q += " GROUP BY url"
	if s.limit > 0 {
		q += fmt.Sprintf(" ORDER BY hits DESC, url LIMIT %d", s.limit)
	}
	return q
}

func newTenants(o options) (workload, error) {
	// The warm-up spans one full 60-second window.
	warm := 30_208
	timed := scaled(o, 122_880, tenantBatch)
	t := &tenants{o: o, in: genClicks(o.seed, warm+timed, tenantStepUS), warm: warm}
	shapeOf := map[string]int{}
	addCQ := func(s tenantShape) {
		s.sql = s.text()
		k, ok := shapeOf[s.sql]
		if !ok {
			k = len(t.shapes)
			shapeOf[s.sql] = k
			t.shapes = append(t.shapes, s)
		}
		t.cqShape = append(t.cqShape, k)
	}
	for i := 0; i < tenantCQs; i++ {
		switch {
		case i < 600: // identical top-10 dashboards
			addCQ(tenantShape{visible: 60, url: -1, ip: -1, limit: 10})
		case i < 900: // one URL's counter: subsumed by the top-10 plan
			addCQ(tenantShape{visible: 60, url: int32(i % 30), ip: -1})
		case i < 950: // other extents over the same ADVANCE
			addCQ(tenantShape{visible: int64(20 + 10*(i%4)), url: -1, ip: -1, limit: 10})
		default: // unique plans: one client's top URLs
			addCQ(tenantShape{visible: 60, url: -1, ip: int32(i - 950), limit: 5})
		}
	}
	t.closes = closesUpTo(t.in.ts, tenantAdvance)
	t.reference()
	t.lookups = lookupPlan(o.seed, 1<<14)
	return t, nil
}

// reference computes every shape's expected batch at every close from
// per-slice counts (a slice is one ADVANCE of event time).
func (t *tenants) reference() {
	first := t.in.ts[0] / tenantAdvance
	nSlices := int(t.in.ts[len(t.in.ts)-1]/tenantAdvance-first) + 1
	all := make([][nURLs]int64, nSlices)
	byIP := map[int32][][nURLs]int64{}
	for _, s := range t.shapes {
		if s.ip >= 0 {
			byIP[s.ip] = make([][nURLs]int64, nSlices)
		}
	}
	for i, ts := range t.in.ts {
		sl := ts/tenantAdvance - first
		all[sl][t.in.url[i]]++
		if c, ok := byIP[t.in.ip[i]]; ok {
			c[sl][t.in.url[i]]++
		}
	}
	t.ref = make([][]uint64, len(t.shapes))
	for k, s := range t.shapes {
		src := all
		if s.ip >= 0 {
			src = byIP[s.ip]
		}
		for _, c := range t.closes {
			var counts [nURLs]int64
			hi := int(c/tenantAdvance - first) // slices [hi-visible/10, hi)
			for sl := max(0, hi-int(s.visible/10)); sl < hi; sl++ {
				for u := range counts {
					counts[u] += src[sl][u]
				}
			}
			var rows []streamrel.Row
			if s.url >= 0 {
				if n := counts[s.url]; n > 0 {
					rows = []streamrel.Row{{streamrel.String(urlName(s.url)), streamrel.Int(n)}}
				}
			} else {
				rows = topURLs(counts[:], s.limit)
			}
			t.ref[k] = append(t.ref[k], hashBatch(c, rows))
		}
	}
}

func (t *tenants) timedRows() int { return len(t.in.rows) - t.warm }

func (t *tenants) round(traced bool) *roundStats {
	r := newRound()
	t0 := time.Now()
	cfg := engineConfig(traced)
	cfg.ParallelCQ = tenantMailbox
	e, err := streamrel.Open(cfg)
	if err != nil {
		return r.fail(err)
	}
	defer e.Close()
	if err := setupPages(e, clickDDL); err != nil {
		return r.fail(err)
	}
	cqs := make([]*streamrel.CQ, len(t.cqShape))
	incremental := 0
	for i, k := range t.cqShape {
		st := time.Now()
		if cqs[i], err = e.Subscribe(t.shapes[k].sql); err != nil {
			return r.fail(err)
		}
		r.add("streamrel.subscribe_us", usSince(st))
		if cqs[i].Incremental {
			incremental++
		}
	}
	r.set("setup_s", time.Since(t0).Seconds())
	r.set("ivm.incremental_cqs", float64(incremental))

	// sent[b] is when the Append of batch b started, read by the consumer
	// to time the batches that batch's closing row produced.
	rows := t.in.rows
	sent := make([]atomic.Int64, len(rows)/tenantBatch)
	cons := newRound()
	done := make(chan struct{})
	go func() {
		defer close(done)
		corrupted := false
		for w, c := range t.closes {
			closer := firstAtOrAfter(t.in.ts, c)
			timed := closer >= t.warm
			for i, cq := range cqs {
				b, ok := cq.Next()
				now := time.Now()
				if !cons.check(ok, "tenants: cq %d ended before close %d", i, w) {
					return
				}
				got := b.Rows
				if t.o.fault == faultCorruptBatch && timed && !corrupted {
					got, corrupted = corrupt(got), true
				}
				cons.check(hashBatch(b.Close.UnixMicro(), got) == t.ref[t.cqShape[i]][w],
					"tenants: cq %d close %d differs from the reference", i, w)
				if timed {
					cons.add("result_ms", float64(now.UnixNano()-sent[closer/tenantBatch].Load())/1e6)
				}
			}
		}
	}()
	// Whatever happens below, the consumer ends before the round does:
	// closing the CQs wakes it if it still waits.
	defer func() {
		for _, cq := range cqs {
			cq.Close()
		}
		<-done
		r.merge(cons)
	}()

	for lo := 0; lo < t.warm; lo += tenantBatch {
		sent[lo/tenantBatch].Store(time.Now().UnixNano())
		if !r.check(e.Append("url_stream", rows[lo:lo+tenantBatch]...) == nil, "warm-up append failed") {
			return r
		}
	}
	r.check(e.Flush() == nil, "warm-up flush failed")

	before := gather(e.Metrics())
	mem := startMem()
	lg := startLoad(readInterval, func(k int) error { return lookupPage(e, t.lookups[k%len(t.lookups)]) })
	var spans []appendSpan
	start := time.Now()
	for lo := t.warm; lo < len(rows); lo += tenantBatch {
		batch := rows[lo : lo+tenantBatch]
		st := time.Now()
		sent[lo/tenantBatch].Store(st.UnixNano())
		if traced {
			id := uint64(lo/tenantBatch + 1)
			err = e.AppendTraced(id, "url_stream", batch...)
			spans = append(spans, appendSpan{id, st.UnixNano(), time.Now().UnixNano()})
		} else {
			err = e.Append("url_stream", batch...)
		}
		r.add("streamrel.append_us", usSince(st))
		if !r.check(err == nil, "append: %v", err) {
			break
		}
	}
	ft := time.Now()
	r.check(e.Flush() == nil, "flush failed")
	r.set("streamrel.flush_ms", msSince(ft))
	r.set("ingest_rows_per_s", float64(t.timedRows())/time.Since(start).Seconds())
	lg.finish(r)
	select {
	case <-done:
		for i, cq := range cqs {
			r.check(cq.Pending() == 0, "tenants: cq %d delivered batches past the last close", i)
		}
	case <-time.After(30 * time.Second):
		r.check(false, "tenants: consumer still waiting 30s after the final flush")
	}
	mem.finish(r, t.timedRows())
	streamLayer(r, before, gather(e.Metrics()), t.timedRows(), len(cqs))
	if traced {
		spanSamples(r, e.Traces(), spans)
	}
	return r
}

func (t *tenants) probes() (map[string]float64, error) {
	out := map[string]float64{}
	// The top-10 dashboards' SELECT over exactly its last window's rows.
	last := len(t.closes) - 1
	c := t.closes[last]
	lo := firstAtOrAfter(t.in.ts, c-60_000_000)
	hi := firstAtOrAfter(t.in.ts, c)
	q := `SELECT url, count(*) AS hits FROM win_scratch GROUP BY url ORDER BY hits DESC, url LIMIT 10`
	us, err := windowQuery(clickScratch, t.in.rows[lo:hi], q, func(rows []streamrel.Row) bool {
		return hashBatch(c, rows) == t.ref[0][last]
	})
	if err != nil {
		return nil, err
	}
	out["exec.window_query_us_p50"] = us
	texts := []string{pagesQuery}
	for _, s := range t.shapes {
		texts = append(texts, s.sql)
	}
	if out["sql.parse_us_p50"], err = parseP50(texts); err != nil {
		return nil, err
	}
	return out, nil
}
