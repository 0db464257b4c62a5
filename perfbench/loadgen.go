package main

import (
	"fmt"
	"time"
)

// readInterval is the open-loop reader's schedule on dashboards, tenants
// and archive: 200 queries a second.
const readInterval = 5 * time.Millisecond

// loadgen is an open-loop reader: it issues query k at start + k×interval
// whether or not earlier queries have returned late, and times each query
// from that scheduled send time, so a stall shows in every query it
// delays. late records how far behind schedule each query was sent.
type loadgen struct {
	stop, done chan struct{}

	lat, late, svc []float64
	ok, bad        int
	errs           []string
}

// startLoad runs do(k) for k = 0, 1, … on the schedule until finish.
func startLoad(interval time.Duration, do func(k int) error) *loadgen {
	g := &loadgen{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		t0 := time.Now()
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * interval)
			if d := time.Until(due); d > 0 {
				timer.Reset(d)
				select {
				case <-g.stop:
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-g.stop:
					return
				default:
				}
			}
			sent := time.Now()
			err := do(k)
			end := time.Now()
			if err != nil {
				g.bad++
				if len(g.errs) < 10 {
					g.errs = append(g.errs, fmt.Sprintf("query %d: %v", k, err))
				}
				continue
			}
			g.ok++
			g.lat = append(g.lat, float64(end.Sub(due).Nanoseconds())/1e6)
			g.late = append(g.late, float64(sent.Sub(due).Nanoseconds())/1e6)
			g.svc = append(g.svc, float64(end.Sub(sent).Nanoseconds())/1e3)
		}
	}()
	return g
}

// finish stops the reader, waits for its goroutine to end and records
// its samples and outcomes in the round.
func (g *loadgen) finish(r *roundStats) {
	close(g.stop)
	<-g.done
	r.smp["query_ms"] = append(r.smp["query_ms"], g.lat...)
	r.smp["query_late_ms"] = append(r.smp["query_late_ms"], g.late...)
	r.smp["streamrel.query_us"] = append(r.smp["streamrel.query_us"], g.svc...)
	r.attempted += g.ok + g.bad
	r.failed += g.bad
	r.errs = append(r.errs, g.errs...)
}
