package metrics

import (
	"sync"
	"testing"
)

// TestHealthConcurrentCounters hammers every counter from concurrent
// goroutines — the shape of a graph whose blocks restart while pumps count
// chunks and monitors snapshot — and checks nothing is lost. Run under
// -race in CI.
func TestHealthConcurrentCounters(t *testing.T) {
	h := NewHealthIn(nil, "")
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.AddIn(1)
				h.AddOut(2)
				h.AddRestart()
				h.AddPanic()
				h.AddStall()
				h.AddAbandoned()
			}
		}()
	}
	// Concurrent readers: snapshots must be internally safe while writers
	// run (values race forward, but must never corrupt).
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if s.ChunksOut < 0 || s.ChunksIn < 0 {
					t.Error("negative counter in snapshot")
					return
				}
				_ = h.ChunksIn()
				_ = h.ChunksOut()
				_ = s.String()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := h.Snapshot()
	total := int64(workers * perWorker)
	if s.ChunksIn != total || s.ChunksOut != 2*total {
		t.Fatalf("chunk counters in=%d out=%d, want %d/%d", s.ChunksIn, s.ChunksOut, total, 2*total)
	}
	for name, got := range map[string]int64{
		"restarts": s.Restarts, "panics": s.Panics,
		"stalls": s.Stalls, "abandoned": s.Abandoned,
	} {
		if got != total {
			t.Fatalf("%s = %d, want %d", name, got, total)
		}
	}
	if h.ChunksIn() != total || h.ChunksOut() != 2*total {
		t.Fatalf("accessor mismatch: in=%d out=%d", h.ChunksIn(), h.ChunksOut())
	}
}
