package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"streamrel"
)

// All inputs come from the seed alone and are generated before any clock
// starts. Event times advance by a fixed step from a seed-dependent,
// unaligned origin, so window boundaries fall at different rows per seed.

func epochUS(rng *rand.Rand) int64 {
	return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro() + rng.Int63n(10_000_000)
}

const (
	nURLs = 400
	// nTaggedIPs client addresses are 10.9.9.<k>, the ones the dashboards
	// CQs exclude one each.
	nTaggedIPs = 32
	nIPs       = 2048
)

func urlName(k int32) string { return fmt.Sprintf("/site/page-%03d", k) }

func ipName(k int32) string {
	if k < nTaggedIPs {
		return fmt.Sprintf("10.9.9.%d", k)
	}
	return fmt.Sprintf("10.%d.%d.%d", 16+k/4096, (k/64)%64, k%64)
}

// clicks is a clickstream: url_stream(atime, url, client_ip, bytes).
type clicks struct {
	rows  []streamrel.Row
	ts    []int64
	url   []int32
	ip    []int32
	bytes []int64
}

const clickDDL = `CREATE STREAM url_stream (atime timestamp CQTIME USER, url varchar(32),
	client_ip varchar(16), bytes bigint)`

// clickScratch holds one window of url_stream rows for the exec probe.
const clickScratch = `CREATE TABLE win_scratch (atime timestamp, url varchar(32),
	client_ip varchar(16), bytes bigint)`

func genClicks(seed int64, n int, stepUS int64) *clicks {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 4, nURLs-1)
	urls := make([]streamrel.Value, nURLs)
	for k := range urls {
		urls[k] = streamrel.String(urlName(int32(k)))
	}
	ips := make([]streamrel.Value, nIPs)
	for k := range ips {
		ips[k] = streamrel.String(ipName(int32(k)))
	}
	c := &clicks{
		rows: make([]streamrel.Row, n), ts: make([]int64, n),
		url: make([]int32, n), ip: make([]int32, n), bytes: make([]int64, n),
	}
	t := epochUS(rng)
	for i := 0; i < n; i++ {
		u := int32(zipf.Uint64())
		ip := int32(nTaggedIPs + rng.Intn(nIPs-nTaggedIPs))
		if rng.Intn(4) == 0 {
			ip = int32(rng.Intn(nTaggedIPs))
		}
		b := int64(200 + rng.Intn(50_000))
		c.ts[i], c.url[i], c.ip[i], c.bytes[i] = t, u, ip, b
		c.rows[i] = streamrel.Row{streamrel.Timestamp(time.UnixMicro(t).UTC()), urls[u], ips[ip], streamrel.Int(b)}
		t += stepUS
	}
	return c
}

// pages is the url_pages table every dashboard looks its top URLs' titles
// up in: a snapshot read beside the running stream.
const pagesDDL = `CREATE TABLE url_pages (url varchar(32), title varchar(48), category varchar(16));
	CREATE INDEX url_pages_url ON url_pages (url)`

const pagesQuery = `SELECT title, category FROM url_pages WHERE url = $1`

func pageTitle(k int32) string { return fmt.Sprintf("Page %d of the site", k) }

func pageRows() []streamrel.Row {
	rows := make([]streamrel.Row, nURLs)
	for k := range rows {
		rows[k] = streamrel.Row{streamrel.String(urlName(int32(k))),
			streamrel.String(pageTitle(int32(k))), streamrel.String(fmt.Sprintf("cat-%d", k%12))}
	}
	return rows
}

// setupPages creates the stream DDL plus url_pages and loads the pages.
func setupPages(e *streamrel.Engine, streamDDL string) error {
	if err := e.ExecScript(streamDDL + ";\n" + pagesDDL); err != nil {
		return err
	}
	return e.BulkInsert("url_pages", pageRows())
}

func lookupPage(e *streamrel.Engine, k int32) error {
	rows, err := e.QueryArgs(pagesQuery, streamrel.String(urlName(k)))
	if err != nil {
		return err
	}
	return checkPage(rows, k)
}

// lookupPlan is the sequence of URLs the open-loop reader looks up.
func lookupPlan(seed int64, n int) []int32 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(nURLs))
	}
	return out
}

// checkPage verifies one url_pages lookup result.
func checkPage(rows *streamrel.Rows, k int32) error {
	if len(rows.Data) != 1 || rows.Data[0][0].Str() != pageTitle(k) {
		return fmt.Errorf("url_pages lookup of %s returned %v", urlName(k), rows.Data)
	}
	return nil
}

// secEvents is a firewall log: sec_stream(etime, src_ip, dst_port,
// action, bytes).
type secEvents struct {
	rows  []streamrel.Row
	ts    []int64
	src   []int32
	port  []int32
	deny  []bool
	bytes []int64
}

const (
	nSources = 1000
	nPorts   = 24
)

func srcName(k int32) string { return fmt.Sprintf("172.16.%d.%d", k/256, k%256) }

func portOf(k int32) int64 { return int64(20 + 37*k) }

func genSecEvents(seed int64, n int, stepUS int64) *secEvents {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 8, nSources-1)
	srcs := make([]streamrel.Value, nSources)
	for k := range srcs {
		srcs[k] = streamrel.String(srcName(int32(k)))
	}
	allow, deny := streamrel.String("allow"), streamrel.String("deny")
	e := &secEvents{
		rows: make([]streamrel.Row, n), ts: make([]int64, n), src: make([]int32, n),
		port: make([]int32, n), deny: make([]bool, n), bytes: make([]int64, n),
	}
	t := epochUS(rng)
	for i := 0; i < n; i++ {
		s := int32(zipf.Uint64())
		p := int32(rng.Intn(nPorts))
		d := rng.Intn(3) == 0
		b := int64(64 + rng.Intn(9000))
		e.ts[i], e.src[i], e.port[i], e.deny[i], e.bytes[i] = t, s, p, d, b
		act := allow
		if d {
			act = deny
		}
		e.rows[i] = streamrel.Row{streamrel.Timestamp(time.UnixMicro(t).UTC()), srcs[s],
			streamrel.Int(portOf(p)), act, streamrel.Int(b)}
		t += stepUS
	}
	return e
}

// imps is an ad-impression feed: imps(itime, publisher, campaign, cost).
type imps struct {
	rows []streamrel.Row
	ts   []int64
	pub  []int32
	camp []int32
	cost []int64
}

const (
	nPublishers = 64
	nCampaigns  = 40
)

func pubName(k int32) string  { return fmt.Sprintf("pub-%02d", k) }
func campName(k int32) string { return fmt.Sprintf("camp-%02d", k) }

func genImps(seed int64, n int, stepUS int64) *imps {
	rng := rand.New(rand.NewSource(seed))
	pubs := make([]streamrel.Value, nPublishers)
	for k := range pubs {
		pubs[k] = streamrel.String(pubName(int32(k)))
	}
	camps := make([]streamrel.Value, nCampaigns)
	for k := range camps {
		camps[k] = streamrel.String(campName(int32(k)))
	}
	m := &imps{
		rows: make([]streamrel.Row, n), ts: make([]int64, n), pub: make([]int32, n),
		camp: make([]int32, n), cost: make([]int64, n),
	}
	t := epochUS(rng)
	for i := 0; i < n; i++ {
		p := int32(rng.Intn(nPublishers))
		c := int32(rng.Intn(nCampaigns))
		cost := int64(1 + rng.Intn(500))
		m.ts[i], m.pub[i], m.camp[i], m.cost[i] = t, p, c, cost
		m.rows[i] = streamrel.Row{streamrel.Timestamp(time.UnixMicro(t).UTC()), pubs[p], camps[c], streamrel.Int(cost)}
		t += stepUS
	}
	return m
}

// scaled applies the run's row-count multiplier, keeping whole batches.
func scaled(o options, rows, batch int) int {
	n := int(float64(rows) * o.scale)
	n -= n % batch
	if n < batch {
		n = batch
	}
	return n
}

// closesUpTo lists the time-window boundaries (multiples of advance) that
// rows with timestamps ts fire: every boundary after the first row up to
// and including the last row's time. The first is alignUp(ts[0]+1).
func closesUpTo(ts []int64, advance int64) []int64 {
	if len(ts) == 0 {
		return nil
	}
	c := alignUp(ts[0]+1, advance)
	var out []int64
	for ; c <= ts[len(ts)-1]; c += advance {
		out = append(out, c)
	}
	return out
}

func alignUp(t, adv int64) int64 {
	q := t / adv
	if q*adv < t {
		q++
	}
	return q * adv
}

// firstAtOrAfter is the index of the first row with ts >= c (the row whose
// arrival closes the window ending at c).
func firstAtOrAfter(ts []int64, c int64) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		m := (lo + hi) / 2
		if ts[m] >= c {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// topURLs orders URLs by count descending, then name, as
// ORDER BY hits DESC, url LIMIT n does, dropping zero counts.
func topURLs(counts []int64, n int) []streamrel.Row {
	return topK(counts, n, func(a, b int32) bool { return a < b },
		func(k int32) streamrel.Value { return streamrel.String(urlName(k)) })
}

// topK is the reference for "GROUP BY key … ORDER BY count DESC, key
// LIMIT n" over per-key counts: keys with a non-zero count, by count
// descending, ties by the key's SQL order (less), at most n of them
// (n = 0: all).
func topK(counts []int64, n int, less func(a, b int32) bool, key func(int32) streamrel.Value) []streamrel.Row {
	var ks []int32
	for k, c := range counts {
		if c > 0 {
			ks = append(ks, int32(k))
		}
	}
	sort.Slice(ks, func(a, b int) bool {
		if counts[ks[a]] != counts[ks[b]] {
			return counts[ks[a]] > counts[ks[b]]
		}
		return less(ks[a], ks[b])
	})
	if n > 0 && len(ks) > n {
		ks = ks[:n]
	}
	rows := make([]streamrel.Row, len(ks))
	for i, k := range ks {
		rows[i] = streamrel.Row{key(k), streamrel.Int(counts[k])}
	}
	return rows
}
