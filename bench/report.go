package main

import "math"

// endToEnd reduces an untraced run to the metrics a user of the system
// sees. The headline operation is per workload: a burst decode (rx-*), a
// burst's delivery from when it was due (link, one class per MCS × size),
// a 16 KiB transfer (gw).
func endToEnd(u *tally, setups []float64) map[string]metric {
	return finite(map[string]metric{
		"setup_s":        {median(setups), "s"},
		"goodput_mbps":   {u.goodput() / 1e6, "Mbit/s"},
		"latency_p50_ms": {u.headline(), "ms"},
	})
}

// receiveLayers are the packages behind the receiver's stage spans, in
// packet order; mac is the FCS check that follows Receive.
var receiveLayers = []string{"synchro", "chanest", "ofdm", "mimo", "fec", "mac"}

// perLayer reduces a traced run. Stage and span times come from the traced
// phases (tr); latencies, allocations and GC from the untraced ones (u), so
// tracing does not inflate them; counters sum both. A metric of a layer the
// workload does not exercise reads 0.
func perLayer(u, tr, st *tally) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	both := func(k string) float64 { return u.counts[k] + tr.counts[k] }
	firstOf := func(k string) []float64 {
		if s := u.samples[k]; len(s) > 0 {
			return s
		}
		return st.samples[k]
	}

	decode := sum(tr.samples["phy.decode_ms"])
	covered := 0.0
	for _, layer := range receiveLayers {
		s := tr.samples[layer+".self_ms"]
		put(layer+".self_ms", "ms", median(s))
		put(layer+".share", "ratio", ratio(sum(s), decode))
		covered += sum(s)
	}
	put("phy.stage_coverage", "ratio", ratio(covered, decode))
	rx := u.samples["phy.decode_ms"]
	put("phy.rx_p50_ms", "ms", median(rx))
	put("phy.rx_p99_ms", "ms", quantile(rx, 0.99))
	put("phy.rx_packets", "count", float64(len(rx)))
	put("phy.realtime_x", "x", median(u.samples["phy.realtime"]))
	put("phy.tx_ms", "ms", median(firstOf("phy.tx_ms")))
	put("phy.tx_allocs_per_burst", "count", ratio(sum(st.samples["phy.tx_allocs"]), float64(len(st.samples["phy.tx_allocs"]))))
	put("channel.apply_ms", "ms", median(firstOf("channel.apply_ms")))

	sent := both("radio.dgrams_sent")
	bursts := 0.0
	if sent > 0 {
		bursts = float64(u.attempted + tr.attempted)
	}
	put("radio.send_ms", "ms", median(u.samples["radio.send_ms"]))
	put("radio.dgrams_per_burst", "count", ratio(sent, bursts))
	put("radio.dgram_loss_ratio", "ratio", ratio(both("radio.lost"), sent))
	put("radio.burst_loss_ratio", "ratio", ratio(float64(u.failed+tr.failed), bursts))
	put("radio.corrupt", "count", both("radio.corrupt"))
	put("radio.late", "count", both("radio.late"))
	put("flowgraph.queue_wait_ms", "ms", median(u.samples["flowgraph.queue_wait_ms"]))
	delivery := u.samples["link.delivery_ms"]
	put("link.delivery_p50_ms", "ms", median(delivery))
	put("link.delivery_p99_ms", "ms", quantile(delivery, 0.99))
	late := append(append([]float64(nil), u.samples["gen.late_ms"]...), tr.samples["gen.late_ms"]...)
	put("gen.late_share", "ratio", ratio(countAbove(late, lateMs), float64(len(late))))

	put("session.handshake_ms", "ms", median(tr.samples["session.handshake_ms"]))
	put("session.fin_ms", "ms", median(tr.samples["session.fin_ms"]))
	put("session.bulk_transfer_p50_ms", "ms", median(u.samples["session.bulk_ms"]))
	put("session.small_transfer_p99_ms", "ms", quantile(u.samples["session.small_ms"], 0.99))
	put("session.dgrams_per_chunk", "count", ratio(tr.counts["session.data_dgrams"], tr.counts["session.chunks"]))
	payload := tr.counts["session.payload_bytes"]
	put("session.wire_overhead_ratio", "ratio", ratio(tr.counts["session.wire_bytes"]-payload, payload))
	for _, k := range []string{"session.gw_window_drops", "session.gw_dgrams_dropped", "session.gw_resets_sent", "session.reconnects"} {
		put(k, "count", both(k))
	}
	put("session.live_sessions_peak", "count", quantile(tr.samples["session.live_sessions"], 1))
	put("session.codec_ns_per_dgram", "ns", median(tr.samples["session.codec_ns"]))

	ops := float64(u.attempted)
	put("runtime.allocs_per_op", "count", ratio(u.counts["rt.mallocs"], ops))
	put("runtime.alloc_bytes_per_op", "B", ratio(u.counts["rt.alloc_bytes"], ops))
	put("runtime.gc_cpu_share", "ratio", ratio(u.counts["rt.gc_cpu_s"], u.counts["rt.busy_cpu_s"]))
	put("runtime.heap_peak_mb", "MiB", u.heapPeak/(1<<20))
	// The headline rate is 1/latency, so (untraced − traced) ÷ untraced of
	// the rate is 1 − untraced latency ÷ traced latency.
	put("trace.overhead_share", "ratio", 1-ratio(u.headline(), tr.headline()))
	return finite(m)
}

// lateMs is how late the link generator may start a burst before it counts
// as late: twice the millisecond granularity of the Go runtime's timers.
const lateMs = 2

func countAbove(xs []float64, limit float64) float64 {
	n := 0.0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return n
}

// finite zeroes values JSON cannot carry.
func finite(m map[string]metric) map[string]metric {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m
}
