package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/shard"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// sharded: two in-memory shard engines behind loopback servers and a
// shard router, all in this process. One client connection appends
// impression batches to a stream partitioned by publisher and reads four
// merged CQ subscriptions; a second connection runs open-loop
// scatter-gather lookups over the per-shard archive table. The client,
// the server's JSON wire, and the router's split, coalescing send and
// merge carry the work; the WAL is off so it does not mask them.
type sharded struct {
	o       options
	in      *imps
	warm    int
	shardOf []int8 // shardOf[row]: the shard its publisher maps to
	subs    []shardSub
	byPub   [][]int32 // rows of each publisher
	costBy  [][]int64 // prefix sums of their cost
	lookups []int32
	totals  []streamrel.Row // final scatter query's expected rows
}

type shardSub struct {
	sql    string
	closes []int64
	// closer[w] is the batch whose append made both shards fire close w,
	// which is when the router may merge it.
	closer  []int
	ref     []uint64
	visible int64
}

const (
	shardBatch   = 256
	shardStepUS  = 500 // 2000 impressions per event-time second
	shardAdvance = 500_000
	nShards      = 2
	// shardRead is the scatter reader's schedule: 100 queries a second.
	shardRead = 10 * time.Millisecond
)

var shardDDL = []string{
	`CREATE STREAM imps (itime timestamp CQTIME USER, publisher varchar(16), campaign varchar(16),
		cost bigint) PARTITION BY publisher`,
	`CREATE TABLE imp_archive (itime timestamp, publisher varchar(16), campaign varchar(16), cost bigint)`,
	`CREATE INDEX imp_archive_pub ON imp_archive (publisher)`,
	`CREATE CHANNEL imp_ch FROM imps INTO imp_archive APPEND`,
}

const (
	pubLookupSQL = `SELECT campaign, count(*) AS n, sum(cost) AS spend FROM imp_archive
		WHERE publisher = $1 GROUP BY campaign`
	campTotalsSQL = `SELECT campaign, count(*) AS n, sum(cost) AS spend FROM imp_archive GROUP BY campaign`
)

func newSharded(o options) (workload, error) {
	// The warm-up spans the longest window (5 seconds).
	warm := 10_240
	timed := scaled(o, 102_400, shardBatch)
	s := &sharded{o: o, in: genImps(o.seed, warm+timed, shardStepUS), warm: warm}
	in := s.in
	m := shard.Map{Addrs: make([]string, nShards)}
	s.shardOf = make([]int8, len(in.rows))
	pubShard := make([]int8, nPublishers)
	for p := range pubShard {
		pubShard[p] = int8(m.ShardOf(streamrel.String(pubName(int32(p)))))
	}
	var shardTS [nShards][]int64
	var shardIdx [nShards][]int
	for i, p := range in.pub {
		sh := pubShard[p]
		s.shardOf[i] = sh
		shardTS[sh] = append(shardTS[sh], in.ts[i])
		shardIdx[sh] = append(shardIdx[sh], i)
	}
	s.subs = []shardSub{
		{sql: `SELECT campaign, count(*) AS n, sum(cost) AS spend FROM imps
			<VISIBLE '500 milliseconds' ADVANCE '500 milliseconds'> GROUP BY campaign`, visible: 500_000},
		{sql: `SELECT campaign, count(*) AS n FROM imps
			<VISIBLE '5 seconds' ADVANCE '500 milliseconds'> GROUP BY campaign`, visible: 5_000_000},
		{sql: `SELECT publisher, count(*) AS n FROM imps
			<VISIBLE '500 milliseconds' ADVANCE '500 milliseconds'> GROUP BY publisher`, visible: 500_000},
		{sql: `SELECT campaign, sum(cost) AS spend FROM imps
			<VISIBLE '2 seconds' ADVANCE '500 milliseconds'> GROUP BY campaign`, visible: 2_000_000},
	}
	// A merged close is emitted once every shard has fired it: shard k
	// fires close c on its first row at or after c. Closes after the last
	// row of either shard stay open.
	last := in.ts[len(in.ts)-1]
	for _, ts := range shardTS {
		last = min(last, ts[len(ts)-1])
	}
	var closes []int64
	for _, c := range closesUpTo(in.ts, shardAdvance) {
		if c <= last {
			closes = append(closes, c)
		}
	}
	closer := make([]int, len(closes))
	for w, c := range closes {
		for k := range shardTS {
			closer[w] = max(closer[w], shardIdx[k][firstAtOrAfter(shardTS[k], c)]/shardBatch)
		}
	}
	for i := range s.subs {
		sub := &s.subs[i]
		sub.closes, sub.closer = closes, closer
		for _, c := range closes {
			lo, hi := firstAtOrAfter(in.ts, c-sub.visible), firstAtOrAfter(in.ts, c)
			sub.ref = append(sub.ref, hashBatch(c, s.groupRows(i, lo, hi)))
		}
	}
	s.byPub = make([][]int32, nPublishers)
	for i, p := range in.pub {
		s.byPub[p] = append(s.byPub[p], int32(i))
	}
	s.costBy = make([][]int64, nPublishers)
	for p, idx := range s.byPub {
		sums := make([]int64, len(idx)+1)
		for j, i := range idx {
			sums[j+1] = sums[j] + in.cost[i]
		}
		s.costBy[p] = sums
	}
	s.totals = s.groupRows(0, 0, len(in.rows))
	for _, p := range lookupPlan(o.seed, 1<<14) {
		s.lookups = append(s.lookups, p%nPublishers)
	}
	return s, nil
}

// groupRows is the reference result of subscription i (its grouping and
// aggregates) over rows [lo, hi), in the router's canonical row order.
func (s *sharded) groupRows(i, lo, hi int) []streamrel.Row {
	var n, cost [nPublishers]int64
	for j := lo; j < hi; j++ {
		k := s.in.camp[j]
		if i == 2 {
			k = s.in.pub[j]
		}
		n[k]++
		cost[k] += s.in.cost[j]
	}
	var rows []streamrel.Row
	for k := int32(0); k < nPublishers; k++ {
		if n[k] == 0 {
			continue
		}
		switch i {
		case 0:
			rows = append(rows, streamrel.Row{streamrel.String(campName(k)), streamrel.Int(n[k]), streamrel.Int(cost[k])})
		case 1:
			rows = append(rows, streamrel.Row{streamrel.String(campName(k)), streamrel.Int(n[k])})
		case 2:
			rows = append(rows, streamrel.Row{streamrel.String(pubName(k)), streamrel.Int(n[k])})
		case 3:
			rows = append(rows, streamrel.Row{streamrel.String(campName(k)), streamrel.Int(cost[k])})
		}
	}
	return rows
}

func (s *sharded) timedRows() int { return len(s.in.rows) - s.warm }

// cluster is one round's shard engines, their servers and the router.
type cluster struct {
	engines []*streamrel.Engine
	servers []*server.Server
	router  *shard.Router
	addr    string
}

func (c *cluster) close() {
	if c.router != nil {
		c.router.Close()
	}
	for i := range c.servers {
		c.servers[i].Close()
	}
	for _, e := range c.engines {
		e.Close()
	}
}

func bootCluster(traced bool) (*cluster, error) {
	c := &cluster{}
	var addrs []string
	for i := 0; i < nShards; i++ {
		e, err := streamrel.Open(engineConfig(traced))
		if err != nil {
			c.close()
			return nil, err
		}
		c.engines = append(c.engines, e)
		srv := server.New(e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		go srv.Serve()
		addrs = append(addrs, addr)
	}
	every := -1
	if traced {
		every = 1
	}
	r, err := shard.NewRouter(shard.Options{Addrs: addrs, TraceSampleEvery: every})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = r
	if up := r.WaitReady(10 * time.Second); up < nShards {
		c.close()
		return nil, fmt.Errorf("only %d of %d shards up", up, nShards)
	}
	if c.addr, err = r.Listen("127.0.0.1:0"); err != nil {
		c.close()
		return nil, err
	}
	go r.Serve()
	return c, nil
}

func (s *sharded) round(traced bool) *roundStats {
	r := newRound()
	t0 := time.Now()
	cl, err := bootCluster(traced)
	if err != nil {
		return r.fail(err)
	}
	defer cl.close()
	writer, err := client.Dial(cl.addr)
	if err != nil {
		return r.fail(err)
	}
	defer writer.Close()
	reader, err := client.Dial(cl.addr)
	if err != nil {
		return r.fail(err)
	}
	defer reader.Close()
	for _, stmt := range shardDDL {
		if _, err := writer.Exec(stmt); err != nil {
			return r.fail(fmt.Errorf("%s: %w", stmt, err))
		}
	}
	subs := make([]*client.Subscription, len(s.subs))
	for i, sub := range s.subs {
		st := time.Now()
		if subs[i], err = writer.Subscribe(sub.sql); err != nil {
			return r.fail(err)
		}
		r.add("streamrel.subscribe_us", usSince(st))
	}
	r.set("setup_s", time.Since(t0).Seconds())
	regs := []*streamrel.MetricsRegistry{cl.engines[0].Metrics(), cl.engines[1].Metrics()}

	rows := s.in.rows
	sent := make([]atomic.Int64, len(rows)/shardBatch)
	cons := newRound()
	var lastDelivery atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := make([]int, len(subs))
		cases := make([]reflect.SelectCase, len(subs))
		for i, sub := range subs {
			cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(sub.C)}
		}
		corrupted := false
		want := 0
		for _, sub := range s.subs {
			want += len(sub.closes)
		}
		for got := 0; got < want; got++ {
			i, b, ok := recvAny(cases)
			now := time.Now()
			if !cons.check(ok, "sharded: a subscription ended early") {
				return
			}
			k := next[i]
			next[i]++
			sub := s.subs[i]
			if !cons.check(k < len(sub.closes), "sharded: subscription %d delivered close %d past the last", i, k) {
				continue
			}
			closer := sub.closer[k]
			timed := closer*shardBatch >= s.warm
			rowsGot := b.Rows
			if s.o.fault == faultCorruptBatch && timed && !corrupted {
				rowsGot, corrupted = corrupt(rowsGot), true
			}
			cons.check(!b.Partial && hashBatch(b.Close.UnixMicro(), rowsGot) == sub.ref[k],
				"sharded: subscription %d close %d differs from the reference", i, k)
			if timed {
				cons.add("result_ms", float64(now.UnixNano()-sent[closer].Load())/1e6)
			}
			lastDelivery.Store(now.UnixNano())
		}
	}()
	// Whatever happens below, the consumer ends before the round does:
	// closing the subscriptions wakes it if it still waits.
	defer func() {
		for _, sub := range subs {
			sub.Close()
		}
		<-done
		r.merge(cons)
	}()

	for lo := 0; lo < s.warm; lo += shardBatch {
		sent[lo/shardBatch].Store(time.Now().UnixNano())
		if !r.check(writer.Append("imps", rows[lo:lo+shardBatch]...) == nil, "warm-up append failed") {
			return r
		}
	}

	before := gather(regs...)
	rBefore := gather(cl.router.Metrics())
	mem := startMem()
	var acked, handed atomic.Int64
	acked.Store(int64(s.warm))
	handed.Store(int64(s.warm))
	lg := startLoad(shardRead, func(k int) error {
		lo := int(acked.Load())
		p := s.lookups[k%len(s.lookups)]
		res, err := reader.Query(pubLookupSQL, streamrel.String(pubName(p)))
		if err != nil {
			return err
		}
		var n, cost int64
		for _, row := range res.Data {
			n += row[1].Int()
			cost += row[2].Int()
		}
		n0, n1, c0, c1 := prefixBounds(s.byPub[p], s.costBy[p], lo, int(handed.Load()))
		if res.Partial || n < n0 || n > n1 || cost < c0 || cost > c1 {
			return fmt.Errorf("lookup of %s: count %d cost %d outside [%d,%d] [%d,%d]", pubName(p), n, cost, n0, n1, c0, c1)
		}
		return nil
	})
	start := time.Now()
	for lo := s.warm; lo < len(rows); lo += shardBatch {
		st := time.Now()
		sent[lo/shardBatch].Store(st.UnixNano())
		handed.Store(int64(lo + shardBatch))
		err := writer.Append("imps", rows[lo:lo+shardBatch]...)
		r.add("client.append_rtt_us", usSince(st))
		if !r.check(err == nil, "append: %v", err) {
			break
		}
		acked.Store(int64(lo + shardBatch))
	}
	appended := time.Now()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		r.check(false, "sharded: merged windows still missing 30s after the last append")
	}
	end := max(appended.UnixNano(), lastDelivery.Load())
	r.set("ingest_rows_per_s", float64(s.timedRows())/(float64(end-start.UnixNano())/1e9))
	lg.finish(r)
	mem.finish(r, s.timedRows())
	after := gather(regs...)
	rAfter := gather(cl.router.Metrics())
	streamLayer(r, before, after, s.timedRows(), len(subs)*nShards)
	r.set("server.command_us_p50", 1e6*histQuantile(histDelta(before, after, "streamrel_server_command_seconds", "op", "append"), 0.5))
	r.set("shard.router_append_us_p50", 1e6*histQuantile(histDelta(rBefore, rAfter, "streamrel_router_append_seconds", "", ""), 0.5))
	r.set("shard.coalesced_batches_mean", histMean(histDelta(rBefore, rAfter, "streamrel_router_coalesced_batches", "", "")))
	r.set("shard.scatter_ms_p50", 1e3*histQuantile(histDelta(rBefore, rAfter, "streamrel_router_scatter_seconds", "", ""), 0.5))
	var total, most float64
	for k := 0; k < nShards; k++ {
		n := deltaWhere(rBefore, rAfter, "streamrel_router_routed_rows_total", "shard", strconv.Itoa(k))
		total += n
		most = max(most, n)
	}
	if total > 0 {
		r.set("shard.row_skew", most/(total/nShards))
	}
	if traced {
		for _, e := range cl.engines {
			spanSamples(r, e.Traces(), nil)
		}
	}
	res, err := reader.Query(campTotalsSQL)
	r.check(err == nil && !res.Partial && hashBatch(0, res.Data) == hashBatch(0, s.totals),
		"sharded: final scatter query differs from the reference (err %v)", err)
	return r
}

// recvAny receives the next batch from whichever subscription has one.
func recvAny(cases []reflect.SelectCase) (int, client.Batch, bool) {
	i, v, ok := reflect.Select(cases)
	if !ok {
		return i, client.Batch{}, false
	}
	return i, v.Interface().(client.Batch), true
}

// prefixBounds is the range of (count, sum) over one key's rows when
// rows [0, lo) were acknowledged before the query was sent and rows
// [0, hi) had been handed over when it returned.
func prefixBounds(idx []int32, sums []int64, lo, hi int) (n0, n1, s0, s1 int64) {
	i0, i1 := countBelow(idx, lo), countBelow(idx, hi)
	return int64(i0), int64(i1), sums[i0], sums[i1]
}

func countBelow(idx []int32, n int) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		m := (lo + hi) / 2
		if int(idx[m]) >= n {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

func (s *sharded) probes() (map[string]float64, error) {
	out := map[string]float64{}
	sub := s.subs[0]
	last := len(sub.closes) - 1
	c := sub.closes[last]
	lo, hi := firstAtOrAfter(s.in.ts, c-sub.visible), firstAtOrAfter(s.in.ts, c)
	us, err := windowQuery(`CREATE TABLE win_scratch (itime timestamp, publisher varchar(16),
		campaign varchar(16), cost bigint)`, s.in.rows[lo:hi],
		`SELECT campaign, count(*) AS n, sum(cost) AS spend FROM win_scratch GROUP BY campaign ORDER BY campaign`,
		func(rows []streamrel.Row) bool { return hashBatch(c, rows) == sub.ref[last] })
	if err != nil {
		return nil, err
	}
	out["exec.window_query_us_p50"] = us
	texts := []string{pubLookupSQL, campTotalsSQL}
	for _, sub := range s.subs {
		texts = append(texts, sub.sql)
	}
	if out["sql.parse_us_p50"], err = parseP50(texts); err != nil {
		return nil, err
	}

	m := shard.Map{Addrs: make([]string, nShards)}
	var enc, split []float64
	for lo := s.warm; lo+shardBatch <= len(s.in.rows) && len(enc) < 400; lo += shardBatch {
		batch := s.in.rows[lo : lo+shardBatch]
		var jerr error
		enc = append(enc, timeIt(func() {
			wire := make([][]server.WireValue, len(batch))
			for i, row := range batch {
				wire[i] = server.EncodeRow(row)
			}
			_, jerr = json.Marshal(&server.Request{Op: "append", Stream: "imps", Rows: wire})
		}))
		if jerr != nil {
			return nil, jerr
		}
		split = append(split, timeIt(func() { _, jerr = m.SplitRows(batch, 1) }))
		if jerr != nil {
			return nil, jerr
		}
	}
	out["server.wire_encode_us_per_batch"] = quantile(enc, 0.5)
	out["shard.split_us_per_batch"] = quantile(split, 0.5)

	// The router's merge of the final scatter query, fed per-shard partial
	// results computed from the same rows.
	stmt, err := sql.Parse(campTotalsSQL)
	if err != nil {
		return nil, err
	}
	plan, err := shard.PlanMerge(stmt.(*sql.Select), "publisher")
	if err != nil {
		return nil, err
	}
	parts := make([][]types.Row, nShards)
	for k := range parts {
		var n, cost [nCampaigns]int64
		for j := range s.in.rows {
			if int(s.shardOf[j]) == k {
				n[s.in.camp[j]]++
				cost[s.in.camp[j]] += s.in.cost[j]
			}
		}
		for cmp := int32(0); cmp < nCampaigns; cmp++ {
			if n[cmp] > 0 {
				parts[k] = append(parts[k], types.Row{types.NewString(campName(cmp)), types.NewInt(n[cmp]), types.NewInt(cost[cmp])})
			}
		}
	}
	var merged []types.Row
	var mus []float64
	for i := 0; i < 200; i++ {
		mus = append(mus, timeIt(func() { merged = plan.Merge(parts) }))
	}
	if hashBatch(0, merged) != hashBatch(0, s.totals) {
		return nil, fmt.Errorf("merge probe result differs from the reference")
	}
	out["shard.merge_us_p50"] = quantile(mus, 0.5)
	return out, nil
}
