package radio

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"repro/internal/clock"
	"repro/internal/flowgraph"
	"repro/internal/obs"
)

// ServiceConfig configures a DatagramService. Listen and Handle are
// required.
type ServiceConfig struct {
	// Listen is the UDP address to bind (e.g. "127.0.0.1:0").
	Listen string
	// Ingress and Handler name the two supervised blocks in health metrics
	// and supervision logs.
	Ingress, Handler string
	// Handle receives each data frame's header, payload and sender on the
	// handler block's goroutine. The payload is a private copy it may keep.
	Handle func(h Header, payload []byte, from *net.UDPAddr)
	// Tick, when positive, calls OnTick on that same goroutine at this
	// period, so handler and tick never race.
	Tick   time.Duration
	OnTick func()
	// Corrupt, when set, observes each datagram that is not a well-formed
	// data frame.
	Corrupt func()
	// Intercept, when set, sees every outbound frame and returns the
	// datagrams to actually send: the faults.Injector.MangleDatagram seam.
	// The slice passed in is a private copy.
	Intercept func(datagram []byte) [][]byte
	// Clock, Logger, Registry and OnRestart feed the supervision policy.
	Clock     clock.Clock
	Logger    *slog.Logger
	Registry  *obs.Registry
	OnRestart func(block string, attempt int, err error)
}

// DatagramService serves data frames on one UDP socket as a two-block
// flowgraph under restart supervision. The ingress block copies each
// datagram onto a side queue and rings the handler block with one empty
// chunk, so the supervised edge carries the flow and its health counters
// measure it while the bytes travel on the queue. The doorbell edge is the
// back-pressure: once it is full the ingress blocks and further datagrams
// wait in the socket's receive buffer. The handler block decodes the data
// frame and calls Handle. A contained panic or read error restarts its
// block with backoff; the datagram in hand is lost, as on the link itself.
type DatagramService struct {
	cfg   ServiceConfig
	conn  *net.UDPConn
	queue chan datagram
}

// queueDepth sizes the side queue. It is headroom, not a limit that acts:
// the queue holds one datagram per doorbell waiting on the edge (up to
// flowgraph.DefaultBufferDepth in its buffer and one in its pump) and the
// one in each block's hand.
const queueDepth = 256

// datagram is one inbound UDP payload queued between the two blocks.
type datagram struct {
	data []byte
	addr *net.UDPAddr
}

// NewDatagramService binds cfg.Listen. Run must be called to serve.
func NewDatagramService(cfg ServiceConfig) (*DatagramService, error) {
	ua, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("radio: resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("radio: listen %q: %w", cfg.Listen, err)
	}
	cfg.Clock = clock.Or(cfg.Clock)
	return &DatagramService{cfg: cfg, conn: conn, queue: make(chan datagram, queueDepth)}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *DatagramService) Addr() net.Addr { return s.conn.LocalAddr() }

// Run serves until ctx ends or a block exhausts its restart budget, then
// closes the socket. It returns nil when ctx ended and the block's
// BlockError otherwise.
func (s *DatagramService) Run(ctx context.Context) error {
	defer s.conn.Close()
	g := flowgraph.New()
	ing, hd := &ingressBlock{s}, &handlerBlock{s}
	// No StallTimeout: an idle listener is not a wedge.
	policy := flowgraph.Policy{MaxRestarts: 4, TrackHealth: true, Metrics: s.cfg.Registry,
		Logger: s.cfg.Logger, Clock: s.cfg.Clock, OnRestart: s.cfg.OnRestart}
	if err := errors.Join(g.Add(ing), g.Add(hd), g.Connect(ing, 0, hd, 0), g.SetPolicy(policy)); err != nil {
		return err
	}
	err := g.Run(ctx)
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// Send frames payload as one data frame keyed by id and transmits it to
// addr, through Intercept when set. Errors equal loss on this link.
func (s *DatagramService) Send(addr *net.UDPAddr, id, seq uint64, payload []byte) {
	frame, err := EncodeDataFrame(nil, Header{Seq: seq, ID: id}, payload)
	if err != nil {
		return
	}
	if s.cfg.Intercept == nil {
		s.conn.WriteToUDP(frame, addr) //nolint:errcheck // lossy link: errors equal loss
		return
	}
	for _, d := range s.cfg.Intercept(frame) {
		s.conn.WriteToUDP(d, addr) //nolint:errcheck // lossy link: errors equal loss
	}
}

// readInterrupted is a read deadline in the past: setting it ends a parked
// read at once.
var readInterrupted = time.Unix(1, 0)

type ingressBlock struct{ s *DatagramService }

func (b *ingressBlock) Name() string      { return b.s.cfg.Ingress }
func (b *ingressBlock) Inputs() int       { return 0 }
func (b *ingressBlock) Outputs() int      { return 1 }
func (b *ingressBlock) Restartable() bool { return true }

func (b *ingressBlock) Run(ctx context.Context, _ []<-chan flowgraph.Chunk, out []chan<- flowgraph.Chunk) error {
	s := b.s
	// The attempt's context ending (shutdown, or the graph failing for
	// good) ends a parked read; a later attempt starts from no deadline.
	if err := s.conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { s.conn.SetReadDeadline(readInterrupted) }) //nolint:errcheck // best effort: Close ends the read too
	defer stop()
	buf := make([]byte, 64*1024)
	for {
		n, addr, err := s.conn.ReadFromUDP(buf)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			return flowgraph.Recoverable(fmt.Errorf("%s: %w", s.cfg.Ingress, err))
		}
		// Never blocks: the queue holds one datagram per doorbell (see
		// queueDepth), and the doorbell follows its datagram.
		s.queue <- datagram{data: append([]byte(nil), buf[:n]...), addr: addr} //mimonet:alloc-ok the datagram escapes to the handler
		if !flowgraph.Send(ctx, out[0], nil) {
			return nil
		}
	}
}

type handlerBlock struct{ s *DatagramService }

func (b *handlerBlock) Name() string      { return b.s.cfg.Handler }
func (b *handlerBlock) Inputs() int       { return 1 }
func (b *handlerBlock) Outputs() int      { return 0 }
func (b *handlerBlock) Restartable() bool { return true }

func (b *handlerBlock) Run(ctx context.Context, in []<-chan flowgraph.Chunk, _ []chan<- flowgraph.Chunk) error {
	s := b.s
	var tick <-chan time.Time
	if s.cfg.Tick > 0 {
		t := s.cfg.Clock.NewTicker(s.cfg.Tick)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case _, ok := <-in[0]:
			if !ok {
				return nil
			}
			s.deliver(<-s.queue)
		case <-tick:
			s.cfg.OnTick()
		}
	}
}

// deliver decodes one queued datagram and hands its data frame to Handle.
func (s *DatagramService) deliver(d datagram) {
	h, err := DecodeHeader(d.data)
	if err == nil {
		var payload []byte
		if payload, err = DecodeDataPayload(h, d.data[headerSize:]); err == nil {
			s.cfg.Handle(h, payload, d.addr)
			return
		}
	}
	if s.cfg.Corrupt != nil {
		s.cfg.Corrupt()
	}
}
