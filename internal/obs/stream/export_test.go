package stream

// QueueDepth and JournalDepth are the hub's subscriber queue and replay
// ring sizes.
const (
	QueueDepth   = queueDepth
	JournalDepth = journalDepth
)

// Node returns the hub's node identity ("" on nil).
func (h *Hub) Node() string {
	if h == nil {
		return ""
	}
	return h.cfg.Node
}

// Subscribers returns the live subscriber count.
func (h *Hub) Subscribers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// DroppedSlow reports whether the hub dropped this subscriber because its
// queue filled. Meaningful once C is closed.
func (s *Subscriber) DroppedSlow() bool { return s.dropped.Load() }
