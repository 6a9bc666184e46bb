// Package session is the reliable session layer of the long-running link
// gateway: many independent transfers multiplexed over one radio transport,
// each an explicit state machine with credit-based flow control on top of
// the mac ARQ window, idle and handshake deadlines on the injectable clock
// seam, and reconnect-with-resume so a dropped peer re-attaches by session
// ID and continues from the last acknowledged offset.
//
// The package splits into a pure core and the two endpoints built on it:
//
//   - Machine (this file) is the side-effect-free session state machine —
//     handshake → transfer → draining → closed — that each gateway session
//     worker steps, property-tested in isolation (any event interleaving
//     terminates in StateClosed and never panics).
//   - Gateway serves many concurrent sessions over one UDP socket, its
//     ingress/demux pumps run by the supervised radio.DatagramService.
//   - Client drives one transfer to completion, reconnecting through
//     capped-exponential-backoff-plus-jitter when the link dies under it.
//     It steps no Machine: its transfer loop and retry budgets are its
//     state.
//
// Wire messages ride radio data frames keyed by session ID, so the
// datagram fault injector of internal/faults applies unchanged at the
// session layer's transport seam.
package session

// State is a session's lifecycle position. The zero value is
// StateHandshake: a session exists only once its first message arrives.
type State uint8

const (
	// StateHandshake awaits the peer's HELLO (or RESUME); nothing has been
	// negotiated yet.
	StateHandshake State = iota
	// StateTransfer moves payload chunks under ARQ and credit flow control.
	StateTransfer
	// StateDraining has verified the complete transfer and lingers briefly
	// to re-acknowledge duplicate FINs before the state is discarded.
	StateDraining
	// StateClosed is terminal; the Outcome distinguishes a completed
	// transfer from a failed-closed session.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateHandshake:
		return "handshake"
	case StateTransfer:
		return "transfer"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return "invalid"
}

// Outcome is the terminal disposition of a closed session.
type Outcome uint8

const (
	// OutcomeOpen means the session has not reached StateClosed yet.
	OutcomeOpen Outcome = iota
	// OutcomeCompleted means the transfer finished and drained cleanly.
	OutcomeCompleted
	// OutcomeFailed means the session failed closed: deadline expired,
	// retry budget exhausted, peer reset, or owner shutdown mid-transfer.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOpen:
		return "open"
	case OutcomeCompleted:
		return "completed"
	case OutcomeFailed:
		return "failed"
	}
	return "invalid"
}

// Event is a stimulus applied to the session state machine. Transport
// messages and timer expiries both reduce to these.
type Event uint8

const (
	// EvAttach: a HELLO or RESUME was accepted (initial handshake or a
	// peer re-attaching after reconnect).
	EvAttach Event = iota
	// EvProgress: in-window transfer activity (a data chunk or ack moved).
	EvProgress
	// EvFinish: the transfer verified complete (FIN with all bytes).
	EvFinish
	// EvDrained: the draining linger elapsed with nothing left to re-ack.
	EvDrained
	// EvTimeout: the state's deadline expired (handshake, idle, or drain).
	EvTimeout
	// EvReset: the peer reset the session or a retry budget was exhausted.
	EvReset
	// EvShutdown: the owning process is shutting down.
	EvShutdown
)

func (e Event) String() string {
	switch e {
	case EvAttach:
		return "attach"
	case EvProgress:
		return "progress"
	case EvFinish:
		return "finish"
	case EvDrained:
		return "drained"
	case EvTimeout:
		return "timeout"
	case EvReset:
		return "reset"
	case EvShutdown:
		return "shutdown"
	}
	return "invalid"
}

// Machine is the pure session state machine. The zero value is a fresh
// session in StateHandshake. Step never panics, ignores events that do not
// apply to the current state, and guarantees termination: every terminal
// event (timeout, reset, shutdown) moves any live state to StateClosed, and
// StateClosed absorbs everything.
type Machine struct {
	state   State
	outcome Outcome
	reason  string
}

// State returns the current lifecycle position.
func (m *Machine) State() State { return m.state }

// Outcome returns the terminal disposition (OutcomeOpen until closed).
func (m *Machine) Outcome() Outcome { return m.outcome }

// Reason returns the failure (or completion) cause recorded at close.
func (m *Machine) Reason() string { return m.reason }

// Step applies one event and returns the resulting state. reason documents
// terminal events in the failure taxonomy ("idle-timeout", "peer-reset",
// "shutdown", …) and is recorded on the transition into StateClosed.
func (m *Machine) Step(ev Event, reason string) State {
	switch m.state {
	case StateHandshake:
		switch ev {
		case EvAttach:
			m.state = StateTransfer
		case EvFinish:
			// A zero-length transfer completes without a data phase.
			m.state = StateDraining
		case EvTimeout, EvReset, EvShutdown:
			m.close(OutcomeFailed, reasonOr(reason, ev))
		}
	case StateTransfer:
		switch ev {
		case EvAttach, EvProgress:
			// Re-attach after reconnect, or in-window activity: stay.
		case EvFinish:
			m.state = StateDraining
		case EvTimeout, EvReset, EvShutdown:
			m.close(OutcomeFailed, reasonOr(reason, ev))
		}
	case StateDraining:
		switch ev {
		case EvDrained, EvTimeout:
			// The linger exists only to re-ack duplicate FINs; its expiry
			// is the clean end of a verified transfer, not a failure.
			m.close(OutcomeCompleted, reasonOr(reason, ev))
		case EvReset, EvShutdown:
			// The transfer already verified complete; a late reset or a
			// shutdown during the linger does not undo that.
			m.close(OutcomeCompleted, reasonOr(reason, ev))
		}
	case StateClosed:
		// Absorbing.
	}
	return m.state
}

func (m *Machine) close(o Outcome, reason string) {
	m.state = StateClosed
	m.outcome = o
	m.reason = reason
}

func reasonOr(reason string, ev Event) string {
	if reason != "" {
		return reason
	}
	return ev.String()
}
