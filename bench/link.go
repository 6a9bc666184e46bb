package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/blocks"
	"repro/internal/channel"
	"repro/internal/flowgraph"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/radio"
)

// The link workload: an open loop of bursts with a seeded MCS × PSDU-size
// mix, sent as IQ datagrams over loopback UDP to a receive node built the
// way mimonet-rx builds one.
const (
	linkRate     = 25 // bursts per second
	linkAntennas = 2
	// linkStreamSps is the rate, in samples per second per chain, at which
	// the sender streams a burst's IQ: a sixteenth of the 20 Msps air rate.
	// The loopback UDP reader loses datagrams above about a quarter of the
	// air rate even with nothing else running, and at an eighth while the
	// receiver decodes (README.md, "Sizing").
	linkStreamSps = 1.25e6
	// linkRealisations is how many vetted channel realisations each stream
	// count rotates through.
	linkRealisations = 4
	// vetMarginDB: a realisation is admitted only if it decodes this much
	// below the run's SNR, so fresh noise at the run's SNR cannot fail it.
	vetMarginDB = 6
	readTimeout = 100 * time.Millisecond
	// drainTimeout bounds the wait for in-flight bursts after a phase's
	// last send; a burst still missing then counts as lost.
	drainTimeout = time.Second
)

var (
	linkMCS   = []int{0, 4, 8, 12}
	linkSizes = []int{64, 512, 1500}
)

type linkHarness struct {
	drawer *drawer
	txs    map[int]*phy.Transmitter
	// chans holds the frozen, vetted channel realisations per stream count.
	chans map[int][]*channel.Channel
	spans *spanLog
	nodes [2]*linkNode // untraced, traced
	seq   uint16
	id    uint64
}

func setupLink(seed int64, spans *spanLog, st *tally) (harness, error) {
	h := &linkHarness{
		drawer: linkDrawer(seed),
		txs:    map[int]*phy.Transmitter{},
		chans:  map[int][]*channel.Channel{},
		spans:  spans,
	}
	for _, m := range linkMCS {
		tx, err := phy.NewTransmitter(phy.TxConfig{MCS: m})
		if err != nil {
			return nil, err
		}
		h.txs[m] = tx
		// Count the transmitter's allocations for every MCS × size of the
		// mix here, where nothing else runs; in the loop they would mix
		// with the receiver's.
		for _, size := range linkSizes {
			if _, err := encodeTx(tx, make([]byte, size-mac.Overhead()), 0, st, true); err != nil {
				return nil, err
			}
		}
	}
	if err := h.vetChannels(rand.New(rand.NewSource(mix(seed, 1))), st); err != nil {
		return nil, err
	}
	n, err := newLinkNode(false, spans)
	if err != nil {
		return nil, err
	}
	h.nodes[0] = n
	return h, nil
}

func linkDrawer(seed int64) *drawer { return newDrawer(seed, linkMCS, linkSizes) }

// vetChannels draws channel realisations for each stream count and keeps
// those on which the stream count's densest MCS decodes a full-size burst
// with vetMarginDB to spare.
func (h *linkHarness) vetChannels(rng *rand.Rand, st *tally) error {
	for _, probe := range [][2]int{{1, 4}, {2, 12}} {
		nss, mcs := probe[0], probe[1]
		rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: linkAntennas, Detector: "mmse"})
		if err != nil {
			return err
		}
		payload := make([]byte, linkSizes[len(linkSizes)-1]-mac.Overhead())
		rng.Read(payload)
		burst, err := encodeTx(h.txs[mcs], payload, 0, st, false)
		if err != nil {
			return err
		}
		for tries := 0; len(h.chans[nss]) < linkRealisations; tries++ {
			if tries == 16*linkRealisations {
				return fmt.Errorf("only %d of %d channel realisations decodable", len(h.chans[nss]), linkRealisations)
			}
			cseed := rng.Int63()
			vet, err := linkChannel(nss, cseed, snrDB-vetMarginDB)
			if err != nil {
				return err
			}
			rx, err := vet.Apply(burst)
			if err != nil {
				return err
			}
			res, err := rcv.Receive(rx)
			if err != nil || checkFrame(res.PSDU, 0, payload) != nil {
				continue
			}
			ch, err := linkChannel(nss, cseed, snrDB)
			if err != nil {
				return err
			}
			h.chans[nss] = append(h.chans[nss], ch)
		}
	}
	return nil
}

// linkChannel is a frozen TGn-B realisation: the taps come from seed and
// stay fixed, the noise is fresh on every burst.
func linkChannel(nss int, seed int64, snr float64) (*channel.Channel, error) {
	return channel.New(channel.Config{NumTX: nss, NumRX: linkAntennas,
		Model: channel.TGnB, SNRdB: snr, Seed: seed, Freeze: true,
		TimingOffset: leadSamples, TrailingSilence: tailSamples})
}

func (h *linkHarness) run(d time.Duration, traced bool, t *tally) error {
	k := 0
	if traced {
		k = 1
	}
	if h.nodes[k] == nil {
		n, err := newLinkNode(traced, h.spans)
		if err != nil {
			return err
		}
		h.nodes[k] = n
	}
	n := h.nodes[k]
	n.begin(t)
	// The generator hands each burst to a sender goroutine: a long burst
	// streams for up to 30 ms at the paced rate, and the next one must not
	// wait for it to be generated. The queue holds a second of bursts.
	out := make(chan outgoing, linkRate)
	streamed := make(chan error, 1)
	go func() { streamed <- n.stream(out, t) }()
	period := time.Second / linkRate
	start := wall.Now()
	var err error
	for i := 0; err == nil && time.Duration(i)*period < d; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := due.Sub(wall.Now()); wait > 0 {
			sleep(wait)
		}
		t.sample("gen.late_ms", ms(wall.Since(due)))
		var b outgoing
		if b, err = h.generate(n, due, t); err == nil {
			out <- b
		}
	}
	close(out)
	if serr := <-streamed; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	n.drain(t)
	return nil
}

// outgoing is a generated burst on its way to the node's socket.
type outgoing struct {
	id      uint64
	samples [][]complex128
}

// generate makes one burst (TX, then the channel) after registering what
// the node must deliver for it.
func (h *linkHarness) generate(n *linkNode, due time.Time, t *tally) (outgoing, error) {
	in := h.drawer.next()
	h.id++
	id, seq := h.id, h.seq
	h.seq = (h.seq + 1) & 0x0FFF
	n.expect(id, &inflight{class: fmt.Sprintf("mcs%d/%dB", in.MCS, in.PSDULen), due: due,
		seq: seq, payload: in.Payload, airtime: airtime(in.MCS, in.PSDULen)})

	t0 := wall.Now()
	burst, err := encodeTx(h.txs[in.MCS], in.Payload, seq, t, false)
	if err != nil {
		return outgoing{}, err
	}
	chans := h.chans[len(burst)]
	ch := chans[uint64(in.ChanSeed)%uint64(len(chans))]
	t1 := wall.Now()
	rx, err := ch.Apply(burst)
	if err != nil {
		return outgoing{}, err
	}
	t2 := wall.Now()
	t.sample("channel.apply_ms", ms(t2.Sub(t1)))
	if n.traced {
		h.spans.add(0, "Transmit", id, t0, t1)
		h.spans.add(0, "Apply", id, t1, t2)
	}
	return outgoing{id, rx}, nil
}

// stream writes each burst from out to the node's socket until out is
// closed, and returns the first write error.
func (n *linkNode) stream(out <-chan outgoing, t *tally) error {
	var first error
	for b := range out {
		if first != nil {
			continue // keep draining, so the generator never blocks
		}
		t0 := wall.Now()
		n.pace.start()
		if err := n.sender.WriteBurstID(b.id, b.samples); err != nil {
			first = err
			continue
		}
		t1 := wall.Now()
		t.sample("radio.send_ms", ms(t1.Sub(t0)-n.pace.slept))
		t.add("radio.dgrams_sent", float64(n.pace.sent))
		if n.traced {
			n.spans.add(0, "WriteBurstID", b.id, t0, t1)
		}
	}
	return first
}

func (h *linkHarness) close() {
	for _, n := range h.nodes {
		if n != nil {
			n.close()
		}
	}
}

// inflight is what the receive node must deliver for one sent burst.
type inflight struct {
	class   string // MCS and PSDU size
	due     time.Time
	seq     uint16
	payload []byte
	airtime time.Duration
}

// paceLead is how many datagrams the sender may release back to back:
// well under what the receiver's socket buffer holds.
const paceLead = 16

// pacer releases a burst's datagrams at a fixed rate, as a front end
// streaming IQ to its host does, allowing at most paceLead of them back to
// back; an unpaced sender overruns the receiving socket's buffer within one
// long burst. It runs in the sender goroutine, inside WriteBurstID.
type pacer struct {
	per   time.Duration // interval between datagrams
	next  time.Time     // earliest release of the next datagram
	sent  int
	slept time.Duration
}

func (p *pacer) start() { p.sent, p.slept = 0, 0 }

func (p *pacer) intercept(d []byte) [][]byte {
	now := wall.Now()
	// Credit accrues one datagram per interval, up to paceLead.
	if floor := now.Add(-paceLead * p.per); p.next.Before(floor) {
		p.next = floor
	}
	if wait := p.next.Sub(now); wait > 0 {
		// Out of credit: wait until half of it has come back, so the
		// sleeps are few and their overshoot is absorbed by the credit.
		sleep(wait + paceLead/2*p.per)
		p.slept += wall.Since(now)
	}
	p.next = p.next.Add(p.per)
	p.sent++
	return [][]byte{d}
}

// handoff carries a burst's packet ID from the source block to the
// receiver block, stamped when the source handed the burst to the graph.
type handoff struct {
	id   uint64
	sent time.Time
}

// linkNode is one receive node: a UDP socket read by a source block that
// feeds blocks.RXBlock in a supervised flowgraph, plus the sender aimed at
// the socket.
type linkNode struct {
	sender *radio.UDPSender
	pace   pacer
	sock   *radio.UDPReceiver
	tracer *obs.Tracer
	traced bool
	spans  *spanLog
	cancel context.CancelFunc
	done   chan error
	// ids relays packet IDs from the source to the receiver block, one per
	// burst, pushed before the burst's chunks; it only has to hold the
	// bursts the graph's edges can buffer.
	ids chan handoff

	mu      sync.Mutex
	pending map[uint64]*inflight
	t       *tally // the phase being measured; nil between phases
	// Link counters copied from the socket by the source goroutine.
	lost, corrupt, late uint64

	// Owned by the receiver block's goroutine.
	cur      handoff
	decoding time.Time
}

func newLinkNode(traced bool, spans *spanLog) (*linkNode, error) {
	sock, err := radio.NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sender, err := radio.NewUDPSender(sock.Addr().String(), linkAntennas)
	if err != nil {
		sock.Close()
		return nil, err
	}
	n := &linkNode{sender: sender, sock: sock, traced: traced, spans: spans,
		done: make(chan error, 1), ids: make(chan handoff, 64), pending: map[uint64]*inflight{}}
	n.pace.per = time.Duration(float64(sender.SamplesPerDatagram) / linkStreamSps * float64(time.Second))
	sender.Intercept = n.pace.intercept
	fail := func(err error) (*linkNode, error) {
		sender.Close()
		sock.Close()
		return nil, err
	}
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: linkAntennas, Detector: "mmse", Workers: 1})
	if err != nil {
		return fail(err)
	}
	var rxObs *phy.RxObs
	if traced {
		n.tracer = obs.NewTracer(8, nil)
		rxObs = phy.NewRxObs(nil, n.tracer)
		rcv.SetObs(rxObs)
	}
	src := &burstSource{n: n}
	sink := &blocks.RXBlock{RX: rcv, Antennas: linkAntennas, Obs: rxObs,
		NextPacketID: n.nextPacketID, OnReport: n.report}
	g := flowgraph.New()
	if err := g.Add(src); err != nil {
		return fail(err)
	}
	if err := g.Add(sink); err != nil {
		return fail(err)
	}
	for a := 0; a < linkAntennas; a++ {
		if err := g.Connect(src, a, sink, a); err != nil {
			return fail(err)
		}
	}
	if err := g.SetPolicy(flowgraph.Policy{TrackHealth: true}); err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	go func() { n.done <- g.Run(ctx) }()
	return n, nil
}

func (n *linkNode) close() {
	n.cancel()
	<-n.done
	n.sender.Close()
	n.sock.Close()
}

// begin points the node's reports at t and snapshots the link counters.
func (n *linkNode) begin(t *tally) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.t = t
	t.add("radio.lost", -float64(n.lost))
	t.add("radio.corrupt", -float64(n.corrupt))
	t.add("radio.late", -float64(n.late))
}

func (n *linkNode) expect(id uint64, f *inflight) {
	n.mu.Lock()
	n.pending[id] = f
	n.mu.Unlock()
}

// drain waits for the phase's bursts to be reported, then counts the rest
// as lost and detaches t.
func (n *linkNode) drain(t *tally) {
	deadline := wall.Now().Add(drainTimeout)
	for wall.Now().Before(deadline) {
		n.mu.Lock()
		left := len(n.pending)
		n.mu.Unlock()
		if left == 0 {
			break
		}
		sleep(5 * time.Millisecond)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.pending {
		t.outcome(false, time.Time{}, 0)
		delete(n.pending, id)
	}
	t.add("radio.lost", float64(n.lost))
	t.add("radio.corrupt", float64(n.corrupt))
	t.add("radio.late", float64(n.late))
	n.t = nil
}

// nextPacketID runs in the receiver block once a burst's chunks arrived.
func (n *linkNode) nextPacketID() uint64 {
	n.cur = <-n.ids
	n.decoding = wall.Now()
	return n.cur.id
}

// report runs in the receiver block after each decode.
func (n *linkNode) report(rep blocks.RXReport) {
	now := wall.Now()
	n.mu.Lock()
	f, t := n.pending[n.cur.id], n.t
	delete(n.pending, n.cur.id)
	n.mu.Unlock()
	if f == nil || t == nil {
		return // a burst from an earlier phase, or one whose ID was lost
	}
	err := rep.Err
	if err == nil {
		err = frameMatches(rep.Frame, f.seq, f.payload)
	}
	if errors.Is(err, errWrongFrame) {
		t.mismatch()
	}
	t.outcome(err == nil, f.due, len(f.payload))
	if err != nil {
		return
	}
	t.op(f.class, now.Sub(f.due))
	t.sample("link.delivery_ms", ms(now.Sub(f.due)))
	decode := now.Sub(n.decoding)
	t.sample("flowgraph.queue_wait_ms", ms(n.decoding.Sub(n.cur.sent)))
	t.sample("phy.decode_ms", ms(decode))
	t.sample("phy.realtime", float64(f.airtime)/float64(decode))
	if n.traced {
		id := n.spans.add(0, "Receive", n.cur.id, n.decoding, now)
		foldStages(n.spans, t, id, n.cur.id, n.tracer.Active().Snapshot())
		n.spans.add(0, "flowgraph.handoff", n.cur.id, n.cur.sent, n.decoding)
	}
}

// burstSource adapts the node's UDP socket into a 0-in, N-out block, one
// output per antenna, as the live receive node does.
type burstSource struct{ n *linkNode }

func (s *burstSource) Name() string { return "burst-source" }
func (s *burstSource) Inputs() int  { return 0 }
func (s *burstSource) Outputs() int { return linkAntennas }

func (s *burstSource) Run(ctx context.Context, _ []<-chan flowgraph.Chunk, out []chan<- flowgraph.Chunk) error {
	n := s.n
	for ctx.Err() == nil {
		t0 := wall.Now()
		burst, err := n.sock.ReadBurst(readTimeout)
		t1 := wall.Now()
		n.mu.Lock()
		n.lost, n.corrupt, n.late = n.sock.Lost, n.sock.Corrupt, n.sock.Late
		n.mu.Unlock()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if err != nil || len(burst) != linkAntennas {
			continue // the burst is lost; its sender counts it at drain
		}
		id := n.sock.LastPacketID()
		if n.traced {
			n.spans.add(0, "ReadBurst", id, t0, t1)
		}
		n.ids <- handoff{id: id, sent: wall.Now()}
		for a, stream := range burst {
			if !flowgraph.Send(ctx, out[a], stream) {
				return nil
			}
		}
	}
	return nil
}
