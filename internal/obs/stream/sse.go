package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxSSEBytes caps one SSE line and one frame's joined data lines, so a
// peer that never ends a frame cannot grow the reader's memory without
// bound.
const maxSSEBytes = 4 << 20

// Handler serves the hub as a server-sent-events stream (RFC-less but
// ubiquitous: text/event-stream frames of "event:" + "data:" lines). Each
// connection gets the standard attach sequence — hello, journal replay,
// full metric snapshot — then live frames until the client disconnects,
// the serving obs.Server closes (Close cancels the request context), or the
// subscriber stalls past its bounded queue and is dropped.
//
// A stalled HTTP client blocks only its own handler goroutine in Write;
// the hub has already detached the subscriber, so publishers and healthy
// subscribers never notice.
func Handler(h *Hub) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sub, err := h.Subscribe()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer sub.Close()
		hdr := w.Header()
		hdr.Set("Content-Type", "text/event-stream")
		hdr.Set("Cache-Control", "no-cache")
		hdr.Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case f, ok := <-sub.C:
				if !ok {
					return
				}
				if err := writeFrame(w, f); err != nil {
					return
				}
				fl.Flush()
			}
		}
	})
}

// writeFrame writes f as one text/event-stream frame. f.Data must be one
// line; every frame the hub makes is one line of JSON.
func writeFrame(w io.Writer, f Frame) error {
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.Event, f.Data)
	return err
}

// ReadSSE parses a text/event-stream from r and invokes fn for every
// complete frame, until EOF (nil return), a read error, a line or frame
// over maxSSEBytes, or fn returning an error. Comment lines (":" prefix)
// and unknown fields are skipped.
func ReadSSE(r io.Reader, fn func(Frame) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxSSEBytes)
	var event string
	var data bytes.Buffer
	flush := func() error {
		if event == "" && data.Len() == 0 {
			return nil
		}
		f := Frame{Event: event, Data: append([]byte(nil), data.Bytes()...)}
		event = ""
		data.Reset()
		return fn(f)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case line[0] == ':':
			// comment / keep-alive
		case strings.HasPrefix(line, "event:"):
			event = trimField(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			field := trimField(line[len("data:"):])
			if data.Len() > 0 {
				if data.Len()+1+len(field) > maxSSEBytes {
					return fmt.Errorf("stream: SSE frame data over %d bytes", maxSSEBytes)
				}
				data.WriteByte('\n')
			}
			data.WriteString(field)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// trimField strips the single optional leading space SSE allows after the
// field colon.
func trimField(s string) string {
	if len(s) > 0 && s[0] == ' ' {
		return s[1:]
	}
	return s
}
