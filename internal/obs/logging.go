package obs

import (
	"io"
	"log/slog"
)

// The logging seam: every binary builds its *slog.Logger here so log lines
// across mimonet-tx, mimonet-rx, mimonet-sim and the flowgraph supervisor
// share one structured vocabulary — the attribute keys below — and a
// packet's life can be grepped across processes by packet_id.

// Canonical attribute keys. Post-mortem tooling (mimonet-dump, log
// pipelines) keys on these, so call sites use the helpers rather than
// ad-hoc strings.
const (
	KeyPacketID = "packet_id"
	KeyTraceID  = "trace_id"
	KeyBlock    = "block"
	KeyNode     = "node"
	KeyBurst    = "burst"
)

// NewLogger returns a structured logger writing to w at the given level,
// as JSON when json is true and logfmt-style text otherwise. The node role
// ("tx", "rx", "sim") is attached to every record.
func NewLogger(w io.Writer, level slog.Level, json bool, node string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	if node != "" {
		l = l.With(slog.String(KeyNode, node))
	}
	return l
}

// LogPacket labels a record with the cross-process packet correlation key.
func LogPacket(id uint64) slog.Attr { return slog.Uint64(KeyPacketID, id) }

// LogBlock labels a record with the flowgraph block it concerns.
func LogBlock(name string) slog.Attr { return slog.String(KeyBlock, name) }

// LogBurst labels a record with the receive-side burst index.
func LogBurst(i int) slog.Attr { return slog.Int(KeyBurst, i) }
