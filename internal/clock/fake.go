package clock

import (
	"runtime"
	"sync"
	"time"
)

// Fake is a manually-advanced Clock for tests. All waiters (After, Timer,
// Ticker) fire synchronously inside Advance when their deadline is reached,
// so time-driven code paths run deterministically with no real sleeping.
// The zero value is not usable; construct with NewFake.
//
//mimonet:testonly-ok test seam: NowCalls and BlockUntilWaiters let clock-driven tests synchronise with the code under test
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
	// nowCalls counts Now invocations, letting tests assert the injected
	// clock (not the wall clock) was consulted.
	nowCalls int
}

type fakeWaiter struct {
	at     time.Time
	period time.Duration // 0 for one-shot
	ch     chan time.Time
	dead   bool
}

// NewFake returns a Fake clock starting at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nowCalls++
	return f.now
}

// NowCalls reports how many times Now has been called.
func (f *Fake) NowCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nowCalls
}

// Since implements Clock.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// After implements Clock.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.add(d, 0).ch
}

// NewTimer implements Clock.
func (f *Fake) NewTimer(d time.Duration) *Timer {
	w := f.add(d, 0)
	return &Timer{C: w.ch, stop: func() bool { return f.remove(w) }}
}

// NewTicker implements Clock.
func (f *Fake) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	w := f.add(d, d)
	return &Ticker{C: w.ch, stop: func() { f.remove(w) }}
}

func (f *Fake) add(d, period time.Duration) *fakeWaiter {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &fakeWaiter{at: f.now.Add(d), period: period, ch: make(chan time.Time, 1)}
	f.waiters = append(f.waiters, w)
	return w
}

func (f *Fake) remove(w *fakeWaiter) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w.dead {
		return false
	}
	w.dead = true
	return true
}

// Advance moves the fake time forward by d, firing every waiter whose
// deadline is crossed, in deadline order. Ticker deliveries that find their
// buffer full are dropped, matching time.Ticker semantics.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for {
		var next *fakeWaiter
		for _, w := range f.waiters {
			if w.dead || w.at.After(target) {
				continue
			}
			if next == nil || w.at.Before(next.at) {
				next = w
			}
		}
		if next == nil {
			break
		}
		if next.at.After(f.now) {
			f.now = next.at
		}
		select {
		case next.ch <- next.at:
		default:
		}
		if next.period > 0 {
			next.at = next.at.Add(next.period)
		} else {
			next.dead = true
		}
	}
	f.now = target
	live := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.dead {
			live = append(live, w)
		}
	}
	f.waiters = live
	f.mu.Unlock()
}

// BlockUntilWaiters spins until at least n live waiters are registered —
// the test-side rendezvous for code that sets up timers asynchronously.
func (f *Fake) BlockUntilWaiters(n int) {
	for {
		f.mu.Lock()
		live := 0
		for _, w := range f.waiters {
			if !w.dead {
				live++
			}
		}
		f.mu.Unlock()
		if live >= n {
			return
		}
		runtime.Gosched()
	}
}

// Compile-time check.
var _ Clock = (*Fake)(nil)
