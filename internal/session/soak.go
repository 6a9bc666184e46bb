package session

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/radio"
)

// SoakScenarios is the chaos rotation: every session is assigned one
// of these, round-robin. "clean" is the control; the rest exercise loss,
// corruption, delay/reorder, abrupt client death (reconnect-with-resume),
// and a link that goes permanently dark (fail-closed eviction).
var SoakScenarios = []string{"clean", "drop", "corrupt", "delay", "peer-kill", "stall"}

// soakFaults maps soak scenario names onto datagram fault configurations
// applied (independently seeded per direction) at the radio seam.
func soakFaults(name string) (faults.Scenario, bool) {
	switch name {
	case "drop":
		return faults.Scenario{Name: name, DgramLoss: 0.25, PanicAfter: -1, StallAfter: -1}, true
	case "corrupt":
		return faults.Scenario{Name: name, DgramCorrupt: 0.25, PanicAfter: -1, StallAfter: -1}, true
	case "delay":
		return faults.Scenario{Name: name, DgramReorder: 0.3, PanicAfter: -1, StallAfter: -1}, true
	default:
		// clean, peer-kill, and stall run a clean datagram path; their
		// chaos comes from the harness (Kill) or the blackhole intercept.
		return faults.Scenario{}, false
	}
}

// SoakConfig sizes a chaos soak run.
type SoakConfig struct {
	// Sessions is the number of client sessions to drive. Default 200.
	Sessions int
	// Bytes is the payload per session. Default 32 KiB.
	Bytes int
	// Parallel bounds concurrently active clients. Default min(Sessions, 64).
	Parallel int
	// Seed is the campaign seed; per-session fault streams, payloads, and
	// kill schedules all derive from it via montecarlo.ShardSeed.
	Seed int64
	// FlightDir receives flight-recorder dumps for failed sessions.
	// Empty disables the recorder.
	FlightDir string
	// Logger observes gateway and harness events. Nil is silent.
	Logger *slog.Logger
	// Clock injects time; nil is the system clock.
	//mimonet:testonly-ok clock seam for a fake clock; no caller, test or production, injects one yet
	Clock clock.Clock
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Sessions <= 0 {
		c.Sessions = 200
	}
	if c.Bytes <= 0 {
		c.Bytes = 32 * 1024
	}
	if c.Parallel <= 0 {
		c.Parallel = 64
	}
	if c.Parallel > c.Sessions {
		c.Parallel = c.Sessions
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Clock = clock.Or(c.Clock)
	return c
}

// ScenarioOutcome aggregates one scenario's slice of the soak.
type ScenarioOutcome struct {
	Sessions    int `json:"sessions"`
	Completed   int `json:"completed"`
	FailedClean int `json:"failed_clean"`
	FailedDirty int `json:"failed_dirty"`
	Reconnects  int `json:"reconnects"`
}

// SoakResult is the tracked robustness artifact (SOAK_pr6.json): did every
// session end in a defined state, how fast did the resume path recover, and
// did the process return to its resource baseline.
type SoakResult struct {
	Sessions  int      `json:"sessions"`
	Bytes     int      `json:"bytes_per_session"`
	Parallel  int      `json:"parallel"`
	Seed      int64    `json:"seed"`
	Scenarios []string `json:"scenarios"`

	Completed   int `json:"completed"`
	FailedClean int `json:"failed_clean"`
	FailedDirty int `json:"failed_dirty"`
	Mismatches  int `json:"payload_mismatches"`
	Reconnects  int `json:"reconnects"`

	RecoveryP50Ms float64 `json:"recovery_p50_ms"`
	RecoveryP99Ms float64 `json:"recovery_p99_ms"`
	RecoveryMaxMs float64 `json:"recovery_max_ms"`

	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`
	FDsBefore        int `json:"fds_before"`
	FDsAfter         int `json:"fds_after"`

	DurationMs  float64                    `json:"duration_ms"`
	Gateway     Stats                      `json:"gateway"`
	PerScenario map[string]ScenarioOutcome `json:"per_scenario"`
	FlightDumps []string                   `json:"flight_dumps,omitempty"`
}

// Clean reports the soak's pass condition: every session ended in a defined
// terminal state (completed, or failed closed through the taxonomy), every
// completed payload arrived intact, and no goroutines leaked.
func (r *SoakResult) Clean() bool {
	return r.FailedDirty == 0 && r.Mismatches == 0 &&
		r.Completed+r.FailedClean == r.Sessions &&
		r.GoroutinesAfter <= r.GoroutinesBefore
}

// crcSink hashes a session's reassembled stream so the soak can verify
// delivery without retaining hundreds of payloads.
type crcSink struct {
	mu  sync.Mutex
	crc uint32
	n   int
}

func (s *crcSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	s.n += len(p)
	s.mu.Unlock()
	return len(p), nil
}

func (s *crcSink) sum() (uint32, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crc, s.n
}

// blackhole wraps an intercept chain: after budget datagrams it eats
// everything — the link going permanently dark mid-transfer.
type blackhole struct {
	mu     sync.Mutex
	budget int
}

func (b *blackhole) pass() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.budget--
	return b.budget >= 0
}

// RunSoak drives the full chaos soak: one in-process gateway, cfg.Sessions
// clients through the scenario rotation, seeded fault injection on both
// directions of the radio seam, and resource accounting around the whole
// run. It is the engine behind `mimonet-gw -soak` and experiment e23.
func RunSoak(ctx context.Context, cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	clk := cfg.Clock
	res := &SoakResult{
		Sessions:  cfg.Sessions,
		Bytes:     cfg.Bytes,
		Parallel:  cfg.Parallel,
		Seed:      cfg.Seed,
		Scenarios: SoakScenarios,
		PerScenario: make(map[string]ScenarioOutcome,
			len(SoakScenarios)),
	}
	// Prime the runtime netpoller before taking the FD baseline: the first
	// socket a Go process opens lazily creates the poller's epoll and event
	// FDs, which live for the rest of the process and would otherwise show
	// up as a spurious "+2 leak" in the before/after comparison.
	if pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err == nil {
		pc.Close()
	}
	res.GoroutinesBefore = runtime.NumGoroutine()
	res.FDsBefore = countFDs()
	start := clk.Now()

	var rec *flight.Recorder
	if cfg.FlightDir != "" {
		rec = flight.New(flight.Config{Dir: cfg.FlightDir, Node: "gw", OnFailure: true, Clock: clk})
	}
	reg := obs.NewRegistry()

	// Gateway-side fault injection: every outbound datagram is mangled by
	// the injector registered for its session (the header carries the ID).
	var gwInjectors sync.Map // uint64 → *faults.Injector
	gwIntercept := func(d []byte) [][]byte {
		h, err := radio.DecodeHeader(d)
		if err != nil {
			return [][]byte{d}
		}
		if inj, ok := gwInjectors.Load(h.ID); ok {
			return inj.(*faults.Injector).MangleDatagram(d)
		}
		return [][]byte{d}
	}

	sinks := make(map[uint64]*crcSink, cfg.Sessions)
	var sinkMu sync.Mutex
	gw, err := NewGateway(Config{
		Listen:      "127.0.0.1:0",
		Clock:       clk,
		Logger:      cfg.Logger,
		Registry:    reg,
		Recorder:    rec,
		IdleTimeout: 1500 * time.Millisecond,
		MaxSessions: cfg.Sessions + 8,
		Intercept:   gwIntercept,
		NewSink: func(id uint64) io.Writer {
			sinkMu.Lock()
			defer sinkMu.Unlock()
			s := &crcSink{}
			sinks[id] = s
			return s
		},
	})
	if err != nil {
		return nil, err
	}
	gwCtx, gwCancel := context.WithCancel(ctx)
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.Run(gwCtx) }()

	type outcome struct {
		scenario   string
		completed  bool
		clean      bool
		reconnects int
		recoveries []time.Duration
		mismatch   bool
	}
	outcomes := make([]outcome, cfg.Sessions)
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			scenario := SoakScenarios[i%len(SoakScenarios)]
			id := uint64(i) + 1
			rng := rand.New(rand.NewSource(montecarlo.ShardSeed(cfg.Seed, 4*i)))
			payload := make([]byte, cfg.Bytes)
			rng.Read(payload)
			wantCRC := crc32.ChecksumIEEE(payload)

			// Independent per-direction fault streams at the radio seam.
			var clientIntercept func([]byte) [][]byte
			if sc, ok := soakFaults(scenario); ok {
				txInj := faults.NewInjector(sc, montecarlo.ShardSeed(cfg.Seed, 4*i+1))
				rxInj := faults.NewInjector(sc, montecarlo.ShardSeed(cfg.Seed, 4*i+2))
				gwInjectors.Store(id, rxInj)
				clientIntercept = txInj.MangleDatagram
			}
			if scenario == "stall" {
				// The link goes dark after a seeded number of datagrams:
				// the client must fail closed within its budgets, the
				// gateway must evict on idle — both without leaking. The
				// gateway side darkens for free: it only ever replies to
				// datagrams, and none arrive.
				bh := &blackhole{budget: 8 + rng.Intn(24)}
				clientIntercept = func(d []byte) [][]byte {
					if bh.pass() {
						return [][]byte{d}
					}
					return nil
				}
			}

			var killer *Client // set after NewClient; intercepts fire only inside Send
			if scenario == "peer-kill" {
				// Abrupt client death mid-transfer, twice, at seeded
				// datagram counts — deterministic in link-event space, so
				// the kill always lands while the transfer is in flight.
				kills := []int{4 + rng.Intn(12), 0}
				kills[1] = kills[0] + 8 + rng.Intn(12)
				var mu sync.Mutex
				sent, next := 0, 0
				inner := clientIntercept
				clientIntercept = func(d []byte) [][]byte {
					mu.Lock()
					sent++
					kill := next < len(kills) && sent >= kills[next]
					if kill {
						next++
					}
					mu.Unlock()
					if kill {
						killer.Kill()
					}
					if inner != nil {
						return inner(d)
					}
					return [][]byte{d}
				}
			}
			c, cerr := NewClient(ClientConfig{
				Addr:      gw.Addr().String(),
				SessionID: id,
				Clock:     clk,
				Rand:      rand.New(rand.NewSource(montecarlo.ShardSeed(cfg.Seed, 4*i+3))),
				Intercept: clientIntercept,
				// Soak-tuned budgets: fail fast, recover fast.
				AckTimeout:       20 * time.Millisecond,
				HandshakeTimeout: 100 * time.Millisecond,
				HandshakeRetries: 6,
				MaxReconnects:    5,
				ReconnectBase:    5 * time.Millisecond,
				ReconnectMax:     100 * time.Millisecond,
			})
			if cerr != nil {
				outcomes[i] = outcome{scenario: scenario}
				return
			}
			killer = c
			err := c.Send(ctx, payload)
			o := outcome{scenario: scenario, reconnects: c.Reconnects, recoveries: c.Recoveries}
			if err == nil {
				o.completed = true
				o.clean = true
				sinkMu.Lock()
				sk := sinks[id]
				sinkMu.Unlock()
				if sk == nil {
					o.mismatch = true
				} else if crc, n := sk.sum(); crc != wantCRC || n != len(payload) {
					o.mismatch = true
				}
			} else if _, isSession := err.(*SessionError); isSession {
				o.clean = true
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()
	// Let the gateway's own eviction machinery fail the abandoned (stall)
	// sessions closed before shutting down, so the artifact records the
	// idle-timeout path rather than a shutdown sweep. Bounded: idle timeout
	// plus drain linger plus slack.
	evictBy := clk.Now().Add(gw.cfg.IdleTimeout + drainLinger + 2*time.Second)
	for gw.Stats().Active > 0 && clk.Now().Before(evictBy) {
		time.Sleep(10 * time.Millisecond) //mimonet:wallclock-ok settle loop on the real scheduler
	}
	gwCancel()
	if err := <-gwDone; err != nil {
		return nil, fmt.Errorf("session: soak gateway: %w", err)
	}
	res.Gateway = gw.Stats()
	res.DurationMs = float64(clk.Since(start)) / float64(time.Millisecond)

	var recoveries []time.Duration
	for _, o := range outcomes {
		agg := res.PerScenario[o.scenario]
		agg.Sessions++
		switch {
		case o.completed && !o.mismatch:
			res.Completed++
			agg.Completed++
		case o.clean:
			res.FailedClean++
			agg.FailedClean++
		default:
			res.FailedDirty++
			agg.FailedDirty++
		}
		if o.mismatch {
			res.Mismatches++
		}
		res.Reconnects += o.reconnects
		agg.Reconnects += o.reconnects
		recoveries = append(recoveries, o.recoveries...)
		res.PerScenario[o.scenario] = agg
	}
	sort.Slice(recoveries, func(a, b int) bool { return recoveries[a] < recoveries[b] })
	if n := len(recoveries); n > 0 {
		res.RecoveryP50Ms = float64(recoveries[n/2]) / float64(time.Millisecond)
		res.RecoveryP99Ms = float64(recoveries[min(n-1, n*99/100)]) / float64(time.Millisecond)
		res.RecoveryMaxMs = float64(recoveries[n-1]) / float64(time.Millisecond)
	}

	// The process must return to its resource baseline: wait out worker
	// unwinding, then take the final counts.
	deadline := clk.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > res.GoroutinesBefore && clk.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond) //mimonet:wallclock-ok settle loop on the real scheduler
	}
	res.GoroutinesAfter = runtime.NumGoroutine()
	res.FDsAfter = countFDs()
	if rec != nil {
		if f, err := rec.Dump("soak-final"); err == nil {
			res.FlightDumps = append(res.FlightDumps, f)
		}
	}
	return res, nil
}

// countFDs counts open file descriptors via /proc; -1 where unavailable.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
