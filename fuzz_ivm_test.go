package streamrel

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzIVMEquivalence drives the delta-maintained pipeline and its re-exec
// twin with the same fuzzer-chosen sequence of appends and time advances,
// and requires byte-identical fire transcripts. The byte stream decodes
// to an op tape: each byte is either "advance the watermark" (fires
// windows, expires slices, including empty-window fires over quiet gaps)
// or "append a row" with a small group-key space (including NULL keys and
// NULL aggregate inputs, so retraction of NULL-bearing slices is covered).
// The queries cover every delta kind: subtracted COUNT/SUM/AVG and the
// re-merged MIN/MAX, STDDEV/VARIANCE, FIRST/LAST and DISTINCT forms.
// Values stay integer-valued so float arithmetic is exact under any
// add/retract/merge order.
func FuzzIVMEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0xf0, 0x33, 0x44, 0xff, 0x55})
	f.Add([]byte{0xf7, 0xf7, 0xf7, 0x01})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0xf1, 0x90, 0xa0})
	f.Add([]byte{})
	// One group across many slices with repeated values, then expiries:
	// re-merged first/last and DISTINCT partials after each retraction.
	f.Add([]byte{0x01, 0x05, 0x11, 0x07, 0x01, 0x05, 0xf2, 0x03, 0x11, 0x05, 0xf2, 0x07, 0x01, 0xf5, 0x05, 0xf9})
	f.Add([]byte{0x22, 0x62, 0x2a, 0x6a, 0x22, 0xf1, 0x3a, 0x22, 0x2a, 0xf1, 0x62, 0xf3, 0x3a, 0xff})
	f.Fuzz(func(t *testing.T, tape []byte) {
		queries := []string{
			`SELECT url, count(*), count(v), sum(v), avg(v), min(v), max(v)
				FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`,
			`SELECT count(*), sum(f), min(f), max(f) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'>`,
			`SELECT url, stddev(v), variance(f), first(v), last(f), count(DISTINCT v), last(DISTINCT f)
				FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`,
		}
		run := func(mode string) []string {
			e := openMemMode(t, mode)
			mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint, f double)`)
			cqs := make([]*CQ, len(queries))
			for i, q := range queries {
				cq, err := e.Subscribe(q)
				if err != nil {
					t.Fatal(err)
				}
				defer cq.Close()
				cqs[i] = cq
			}
			ts := ivmBase
			for _, op := range tape {
				if op >= 0xf0 {
					// Advance 1..64 seconds: fires boundaries, expires
					// slices, can skip whole windows.
					ts += int64(op&0x0f+1) * 4_000_000
					e.AdvanceTime("s", time.UnixMicro(ts).UTC())
					continue
				}
				ts += int64(op&0x07) * 700_000
				url := Value(Null)
				if g := (op >> 3) & 0x07; g != 7 {
					url = String(fmt.Sprintf("/u%d", g))
				}
				v := Value(Null)
				if op&0x40 == 0 {
					v = Int(int64(op % 23))
				}
				row := Row{url, Timestamp(time.UnixMicro(ts).UTC()), v, Float(float64(op % 31))}
				if err := e.Append("s", row); err != nil {
					t.Fatal(err)
				}
			}
			e.AdvanceTime("s", time.UnixMicro(ts).Add(time.Minute).UTC())
			var out []string
			for i, cq := range cqs {
				for _, b := range collectBatches(t, cq) {
					out = append(out, fmt.Sprintf("q%d %s", i, b))
				}
			}
			return out
		}
		inc := run("incremental")
		ref := run("reexec")
		if a, b := strings.Join(inc, "\n"), strings.Join(ref, "\n"); a != b {
			t.Fatalf("incremental and re-exec transcripts differ:\nincremental:\n%s\nreexec:\n%s", a, b)
		}
	})
}
