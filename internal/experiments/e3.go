package experiments

import (
	"fmt"
	"time"

	"streamrel"
	"streamrel/internal/workload"
)

// E3 measures the paper's shared ("Jellybean") processing (§2.2, refs
// [4],[12]): k continuous queries with the same shape over one stream,
// all incrementally maintained. With plan sharing the k CQs subscribe to
// one host whose state absorbs each row once; without, each CQ keeps its
// own state and pays the full per-event cost. Expected shape: unshared
// cost grows linearly in k, shared cost stays nearly flat (only the
// per-member sink call scales with k).
func E3(s Scale) (*Table, error) {
	n := s.n(150_000)
	ks := []int{1, 2, 4, 8, 16}
	t := &Table{
		ID:     "E3",
		Title:  "§2.2 shared processing: k identical CQs, with vs without plan sharing",
		Header: []string{"k CQs", "unshared ingest", "shared ingest", "speedup", "shared aggs"},
	}
	run := func(k int, share bool) (time.Duration, int, error) {
		eng, err := streamrel.Open(streamrel.Config{DisablePlanSharing: !share})
		if err != nil {
			return 0, 0, err
		}
		defer eng.Close()
		if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
			return 0, 0, err
		}
		var cqs []*streamrel.CQ
		for i := 0; i < k; i++ {
			cq, err := eng.Subscribe(`SELECT url, count(*), sum(length(client_ip))
				FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url`)
			if err != nil {
				return 0, 0, err
			}
			cqs = append(cqs, cq)
		}
		gen := workload.NewClickstream(workload.ClickConfig{Seed: 2, EventsPerSec: 400})
		rows := gen.Take(n)
		start := time.Now()
		if err := eng.Append("url_stream", rows...); err != nil {
			return 0, 0, err
		}
		eng.AdvanceTime("url_stream", time.UnixMicro(gen.Now()+60_000_000).UTC())
		elapsed := time.Since(start)
		stats := eng.Stats()
		for _, cq := range cqs {
			cq.Close()
		}
		return elapsed, stats.PlanGroups, nil
	}
	for _, k := range ks {
		unshared, _, err := run(k, false)
		if err != nil {
			return nil, err
		}
		shared, aggs, err := run(k, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), fmtDur(unshared), fmtDur(shared),
			fmtX(float64(unshared) / float64(shared)),
			fmt.Sprintf("%d", aggs),
		})
	}
	t.Notes = append(t.Notes,
		"identical plans collapse onto one incremental plan-group host (shared aggs = plan groups); speedup approaches k for large k")
	return t, nil
}
