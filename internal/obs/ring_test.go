package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTraceRingSnapshotIsAWindow: however publishers and readers
// interleave, a snapshot is the last min(published, capacity) records in
// publish order — no record from a lap already overwritten, none that
// was published after a newer one it precedes, none twice. Publishers
// number their own records, so within a window each publisher's records
// must be consecutive and ascending.
func TestTraceRingSnapshotIsAWindow(t *testing.T) {
	const capacity, publishers, each = 64, 4, 5000
	tel := New("w", capacity)
	tel.SetTraceSampling(1)
	urls := make([][]string, publishers)
	for p := range urls {
		urls[p] = make([]string, each)
		for i := range urls[p] {
			urls[p][i] = strconv.Itoa(i)
		}
	}
	var published atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			node := "p" + strconv.Itoa(p)
			for i := 0; i < each; i++ {
				tel.Finish(tel.StartTrace(node, urls[p][i]))
				published.Add(1)
			}
		}(p)
	}
	var bad atomic.Int64
	var first atomic.Value
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				before := published.Load()
				snap := tel.Traces.Snapshot()
				if err := checkWindow(snap, before, capacity); err != nil {
					if bad.Add(1) == 1 {
						first.Store(err.Error())
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if err := checkWindow(tel.Traces.Snapshot(), publishers*each, capacity); err != nil {
		t.Fatalf("quiescent snapshot: %v", err)
	}
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d snapshots were not a window of the publish order; first: %s", n, first.Load())
	}
}

// checkWindow reports how snap fails to be a window of at least
// min(published, capacity) records, at most capacity, each publisher's
// records consecutive and ascending.
func checkWindow(snap []*Trace, published int64, capacity int) error {
	if int64(len(snap)) < min(published, int64(capacity)) || len(snap) > capacity {
		return fmt.Errorf("%d records with %d published into %d slots", len(snap), published, capacity)
	}
	last := make(map[string]int)
	for i, tr := range snap {
		n, err := strconv.Atoi(tr.URL)
		if err != nil {
			return fmt.Errorf("record %d: url %q", i, tr.URL)
		}
		if prev, seen := last[tr.Node]; seen && n != prev+1 {
			return fmt.Errorf("record %d: %s's #%d follows its #%d", i, tr.Node, n, prev)
		}
		last[tr.Node] = n
	}
	return nil
}

// TestTraceRingWriteJSONUnderPublish runs /debug/trace readers against
// publishers whose records carry spans and attributes: every dumped
// record must be whole — its spans and attributes the ones its own
// request recorded — and the race detector must stay quiet.
func TestTraceRingWriteJSONUnderPublish(t *testing.T) {
	tel := New("j", 16)
	tel.SetTraceSampling(1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				url := "u" + strconv.Itoa(p) + "-" + strconv.Itoa(i%7)
				tr := tel.StartTrace("n", url)
				for s := 0; s < 1+i%5; s++ {
					idx := tr.OpenSpan(StageICPFanout, time.Now())
					tr.Annotate("url", url)
					tr.Annotate("span", strconv.Itoa(s))
					tr.CloseSpan(idx, time.Microsecond)
				}
				tel.Finish(tr)
			}
		}(p)
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			var err error
			for err == nil && !stop.Load() {
				var sb strings.Builder
				if err = tel.Traces.WriteJSON(&sb, ""); err != nil {
					break
				}
				var recs []Trace
				if err = json.Unmarshal([]byte(sb.String()), &recs); err != nil {
					break
				}
				for _, rec := range recs {
					for s, sp := range rec.Spans {
						if sp.Attrs.Get("url") != rec.URL || sp.Attrs.Get("span") != strconv.Itoa(s) || len(sp.Attrs) != 2 {
							err = fmt.Errorf("record %s (%s) span %d attrs %+v", rec.ID, rec.URL, s, sp.Attrs)
						}
					}
				}
			}
			errs <- err
		}()
	}
	wg.Wait()
	stop.Store(true)
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
