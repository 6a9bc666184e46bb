// Command mimonet-sim runs the paper's reconstructed experiments (E1-E12,
// see DESIGN.md) and prints their tables. Operational events (telemetry
// endpoint, failures) go to stderr through the shared structured-logging
// seam; the tables themselves are the program's output and stay on stdout.
//
// Usage:
//
//	mimonet-sim -exp e5 -packets 500
//	mimonet-sim -exp all -quick
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	def := sim.DefaultOptions()
	var (
		exp           = flag.String("exp", "all", "experiment id (e1..e12) or \"all\"")
		packets       = flag.Int("packets", def.Packets, "Monte-Carlo packets/trials per sweep point")
		payload       = flag.Int("payload", def.PayloadLen, "MAC payload size in octets")
		seed          = flag.Int64("seed", def.Seed, "random seed")
		quick         = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		scenario      = flag.String("scenario", "", "restrict fault-injection experiments (e22) to one named scenario")
		workers       = flag.Int("workers", 0, "Monte-Carlo worker goroutines for the sharded experiments (0 = GOMAXPROCS, 1 = serial); results are identical at any count")
		metricsListen = flag.String("metrics-listen", "", "serve /metrics and /debug/pprof on this address while experiments run (empty = telemetry off)")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo, *logJSON, "sim")
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.String("err", err.Error()))
		os.Exit(1)
	}

	var done *obs.Counter
	if *metricsListen != "" {
		reg := obs.NewRegistry()
		obs.BuildInfo(reg, "sim")
		done = reg.Counter("mimonet_sim_experiments_total", "experiments completed this run")
		srv := obs.NewServer(reg, nil, nil)
		addr, err := srv.Listen(*metricsListen)
		if err != nil {
			fatal("telemetry listen failed", err)
		}
		defer srv.Close()
		logger.Info("telemetry listening", slog.String("addr", "http://"+addr.String()+"/metrics"))
	}

	opt := sim.Options{Seed: *seed, Packets: *packets, PayloadLen: *payload, Quick: *quick, Scenario: *scenario, Workers: *workers}
	ids := []string{strings.ToLower(*exp)}
	if ids[0] == "all" {
		ids = sim.IDs()
	}
	for _, id := range ids {
		runner, err := sim.Lookup(id)
		if err != nil {
			fatal("unknown experiment", err)
		}
		table, err := runner(opt)
		if err != nil {
			fatal("experiment "+id+" failed", err)
		}
		if err := table.Render(os.Stdout); err != nil {
			fatal("table render failed", err)
		}
		done.Inc()
		fmt.Println()
	}
}
