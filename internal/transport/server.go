package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pnm/internal/fault"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/queue"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// Config describes an ingest server.
type Config struct {
	// NewVerifier builds one single-goroutine verifier chain. The sink
	// and every chaos restore construct their own instance through it.
	// Required.
	NewVerifier func() sink.Verifier
	// Topo, when non-nil, lets verdicts name one-hop neighborhoods.
	Topo *topology.Network
	// Epochs, when non-nil, is the live topology history of the network
	// in front of the server: each ingested frame is stamped with the
	// epoch current at enqueue and verified against that epoch's routing
	// tree (the verifiers built by NewVerifier must share this set for
	// the stamp to mean anything). nil keeps every frame on the base
	// epoch — byte-identical to the pre-epoch server, which is what the
	// loopback-equivalence tests pin.
	Epochs *topology.EpochSet
	// QueueDepth is the ingest queue depth between the socket readers and
	// the sink goroutine (default 256). It is also the maximum batch the
	// sink goroutine drains per wake-up.
	QueueDepth int
	// Policy selects what a reader does when the ingest queue is full:
	// Block applies lossless backpressure (the stall propagates into the
	// peer's TCP window), DropNewest and DropOldest shed load. The same
	// vocabulary internal/netsim simulates.
	Policy queue.Policy
	// Limits bounds the frame decoder; zero fields select the defaults.
	Limits Limits
	// MaxConns bounds concurrent TCP connections (default 64); excess
	// accepts are counted and closed immediately.
	MaxConns int
	// Obs, when non-nil, binds the transport.* counters and histograms
	// plus the whole sink chain's metrics into the registry.
	Obs *obs.Registry
	// Faults, when non-nil, schedules sink crash/restore events against
	// the live server. Events fire on the sink goroutine at processed-frame
	// milestones (frames dequeued, delivered or not); frames arriving
	// while the sink is down are dropped and counted, exactly like the
	// simulator's sink outage. Node and link events have no meaning in
	// front of a socket, and Listen rejects them.
	Faults *fault.Plan
}

// item is one ingested message annotated with its enqueue instant, so
// the sink goroutine can histogram queue-to-fold latency. The message is
// pooled: see Server.msgs for the ownership rule.
type item struct {
	msg *packet.Message
	at  int64 // UnixNano at enqueue
	// epoch is the topology epoch current at enqueue (always 0 without
	// Config.Epochs); verification resolves the frame against it.
	epoch topology.EpochVersion
}

// counters are the server's obs bindings; every field is nil (no-op)
// unless Config.Obs was set.
type counters struct {
	connsAccepted *obs.Counter
	connsRefused  *obs.Counter
	acceptErrors  *obs.Counter
	frames        *obs.Counter
	bytes         *obs.Counter
	udpDatagrams  *obs.Counter
	udpBytes      *obs.Counter
	udpReadErrors *obs.Counter

	badMagic   *obs.Counter
	badVersion *obs.Counter
	badType    *obs.Counter
	tooBig     *obs.Counter
	truncated  *obs.Counter
	badPayload *obs.Counter

	queueFullBlocks *obs.Counter
	queueDropNewest *obs.Counter
	queueDropOldest *obs.Counter

	delivered       *obs.Counter
	batches         *obs.Counter
	batchOccupancy  *obs.Histogram
	ingestLatencyUs *obs.Histogram
	droppedOnClose  *obs.Counter

	chaosCrashes     *obs.Counter
	chaosRestores    *obs.Counter
	droppedWhileDown *obs.Counter
}

// bind resolves every metric name. A nil registry yields no-op metrics.
func (c *counters) bind(reg *obs.Registry) {
	c.connsAccepted = reg.Counter("transport.conns_accepted")
	c.connsRefused = reg.Counter("transport.conns_refused")
	c.acceptErrors = reg.Counter("transport.accept_errors")
	c.frames = reg.Counter("transport.frames")
	c.bytes = reg.Counter("transport.bytes")
	c.udpDatagrams = reg.Counter("transport.udp.datagrams")
	c.udpBytes = reg.Counter("transport.udp.bytes")
	c.udpReadErrors = reg.Counter("transport.udp.read_errors")
	c.badMagic = reg.Counter("transport.decode.bad_magic")
	c.badVersion = reg.Counter("transport.decode.bad_version")
	c.badType = reg.Counter("transport.decode.bad_type")
	c.tooBig = reg.Counter("transport.decode.frame_too_big")
	c.truncated = reg.Counter("transport.decode.truncated")
	c.badPayload = reg.Counter("transport.decode.bad_payload")
	c.queueFullBlocks = reg.Counter("transport.ingest.queue_full_blocks")
	c.queueDropNewest = reg.Counter("transport.ingest.queue_drop_newest")
	c.queueDropOldest = reg.Counter("transport.ingest.queue_drop_oldest")
	c.delivered = reg.Counter("transport.delivered")
	c.batches = reg.Counter("transport.ingest.batches")
	c.batchOccupancy = reg.Histogram("transport.ingest.batch_occupancy")
	c.ingestLatencyUs = reg.Histogram("transport.ingest.latency_us")
	c.droppedOnClose = reg.Counter("transport.ingest.dropped_on_close")
	c.chaosCrashes = reg.Counter("transport.chaos.sink_crashes")
	c.chaosRestores = reg.Counter("transport.chaos.sink_restores")
	c.droppedWhileDown = reg.Counter("transport.chaos.dropped_while_down")
}

// countDecodeErr classifies a frame error into its rejection counter.
func (c *counters) countDecodeErr(err error) {
	switch {
	case errors.Is(err, ErrBadMagic):
		c.badMagic.Inc()
	case errors.Is(err, ErrBadVersion):
		c.badVersion.Inc()
	case errors.Is(err, ErrBadType):
		c.badType.Inc()
	case errors.Is(err, ErrFrameTooBig):
		c.tooBig.Inc()
	case errors.Is(err, ErrBadPayload):
		c.badPayload.Inc()
	default:
		c.truncated.Inc()
	}
}

// Server is a running ingest frontend. Always Close it.
type Server struct {
	cfg    Config
	ln     net.Listener
	udp    net.PacketConn
	ingest chan item
	stop   chan struct{}
	wg     sync.WaitGroup
	c      counters

	// msgs pools the *packet.Message values flowing reader → queue →
	// sink, so steady-state ingest recycles mark storage instead of
	// allocating per frame. Ownership rule (see DESIGN.md §13): exactly
	// one goroutine owns a pooled message at any instant. A reader owns
	// what it got from the pool until enqueue returns; a true return
	// transfers ownership to the queue (or, under DropNewest, the message
	// was already released), false means enqueue released it. The sink
	// goroutine owns everything it dequeues and releases the whole batch
	// after fold returns — the verifiers copy what they keep, so nothing
	// downstream aliases a released message. Close releases what it
	// drains. The pool itself is concurrency-safe; the messages are not.
	msgs sync.Pool

	// connMu guards the live connection set, so Close can unblock
	// readers, and the MaxConns bound.
	connMu sync.Mutex
	conns  map[net.Conn]struct{} // pnmlint:guarded-by connMu

	// sink is the tracker, verifier chain, crash checkpoint and progress
	// broadcast the sink goroutine folds through, the same host
	// netsim.Network runs its sink on. Verdict and delivered reads
	// synchronize inside it, from any goroutine.
	sink *sink.Host

	closeOnce sync.Once
	drainOnce sync.Once
}

// Listen binds addr (TCP, required; ":0" picks a port) and udpAddr (UDP,
// optional, "" disables) and starts the accept, read and sink goroutines.
func Listen(addr, udpAddr string, cfg Config) (*Server, error) {
	if cfg.NewVerifier == nil {
		return nil, errors.New("transport: NewVerifier is required")
	}
	if cfg.Faults != nil {
		for _, ev := range cfg.Faults.Events {
			if ev.Kind != fault.SinkCrash && ev.Kind != fault.SinkRestore {
				return nil, fmt.Errorf("transport: fault %v: a server has only sink events", ev)
			}
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	cfg.Limits = cfg.Limits.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var udp net.PacketConn
	if udpAddr != "" {
		udp, err = net.ListenPacket("udp", udpAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	s := &Server{
		cfg:    cfg,
		ln:     ln,
		udp:    udp,
		ingest: make(chan item, cfg.QueueDepth),
		stop:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		sink:   sink.NewHost(cfg.NewVerifier, cfg.Topo, cfg.Obs),
	}
	s.c.bind(cfg.Obs)
	s.wg.Add(2)
	go s.acceptLoop()
	go s.sinkLoop()
	if udp != nil {
		s.wg.Add(1)
		go s.udpLoop()
	}
	return s, nil
}

// getMsg takes a message from the pool; the caller owns it until it
// hands it to enqueue or releases it with putMsg.
func (s *Server) getMsg() *packet.Message {
	if m, ok := s.msgs.Get().(*packet.Message); ok {
		return m
	}
	return new(packet.Message)
}

// putMsg releases a message back to the pool (nil is a no-op). The mark
// storage is kept — its capacity is what steady-state ingest reuses —
// and is bounded by Limits.MaxMarks, so a pooled message can never pin
// more than one hostile frame's worth of marks.
func (s *Server) putMsg(m *packet.Message) {
	if m == nil {
		return
	}
	m.Marks = m.Marks[:0]
	s.msgs.Put(m)
}

// releaseBatch returns every message in a folded (or dropped) batch to
// the pool — the sink goroutine's half of the ownership hand-off.
func (s *Server) releaseBatch(batch []item) {
	for i := range batch {
		s.putMsg(batch[i].msg)
		batch[i].msg = nil
	}
}

// Addr returns the TCP listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// UDPAddr returns the UDP listen address, or nil when UDP is disabled.
func (s *Server) UDPAddr() net.Addr {
	if s.udp == nil {
		return nil
	}
	return s.udp.LocalAddr()
}

// acceptLoop admits TCP connections up to MaxConns. Accept errors go
// through retry: counted, backed off when temporary, and the end of the
// loop when the listener is permanently dead.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	delay := time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.retry(err, s.c.acceptErrors, &delay) {
				continue
			}
			return
		}
		delay = time.Millisecond
		if !s.admit(conn) {
			s.c.connsRefused.Inc()
			conn.Close()
			continue
		}
		s.c.connsAccepted.Inc()
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

// retry handles one failed accept or datagram read for its loop: it
// counts err in errs and reports whether the loop should try again. A
// stopping server, a closed socket and a non-temporary error end the
// loop, since the socket will never recover. A temporary error (EMFILE
// and friends) backs off for *delay, then doubles it up to 1 s, rather
// than spinning hot.
func (s *Server) retry(err error, errs *obs.Counter, delay *time.Duration) bool {
	if s.stopping() {
		return false
	}
	errs.Inc()
	var ne net.Error
	if errors.Is(err, net.ErrClosed) || !errors.As(err, &ne) || !ne.Temporary() {
		return false
	}
	//pnmlint:allow wallclock socket-error backoff, never reaches verdicts
	t := time.NewTimer(*delay)
	defer t.Stop()
	select {
	case <-t.C:
		*delay = min(*delay*2, time.Second)
		return true
	case <-s.stop:
		return false
	}
}

// stopping reports whether Close has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// admit registers conn unless the connection bound is reached or the
// server is stopping.
func (s *Server) admit(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.stop:
		return false
	default:
	}
	if len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// readLoop decodes one connection's frame stream into the ingest queue.
// Recoverable (payload) errors are counted and the stream continues; a
// framing error is counted and kills the connection — the byte stream
// can no longer be trusted.
func (s *Server) readLoop(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	fr := NewFrameReader(conn, s.cfg.Limits)
	msg := s.getMsg()
	defer func() {
		if msg != nil {
			s.putMsg(msg)
		}
	}()
	for {
		if err := fr.Next(msg); err != nil {
			if err == io.EOF || errors.Is(err, net.ErrClosed) || s.stopping() {
				// The peer hung up, or Close shut the connection under the
				// read: a clean exit, not a malformed frame.
				return
			}
			s.c.countDecodeErr(err)
			if Recoverable(err) {
				continue // msg holds no marks; reuse it for the next frame
			}
			return
		}
		s.c.frames.Inc()
		s.c.bytes.Add(uint64(FrameHeaderLen + msg.WireSize()))
		if !s.enqueue(msg) {
			msg = nil // enqueue released it
			return    // server stopping
		}
		msg = s.getMsg()
	}
}

// udpLoop decodes datagrams — one frame each — into the ingest queue.
// Every rejection is per-datagram and counted; read errors go through
// retry, as acceptLoop's do.
func (s *Server) udpLoop() {
	defer s.wg.Done()
	buf := make([]byte, s.cfg.Limits.MaxFrameBytes+FrameHeaderLen)
	msg := s.getMsg()
	defer func() {
		if msg != nil {
			s.putMsg(msg)
		}
	}()
	delay := time.Millisecond
	for {
		n, _, err := s.udp.ReadFrom(buf)
		if err != nil {
			if s.retry(err, s.c.udpReadErrors, &delay) {
				continue
			}
			return
		}
		delay = time.Millisecond
		s.c.udpDatagrams.Inc()
		s.c.udpBytes.Add(uint64(n))
		if err := DecodeDatagramInto(msg, buf[:n], s.cfg.Limits); err != nil {
			s.c.countDecodeErr(err)
			continue // msg holds no marks; reuse it for the next datagram
		}
		if !s.enqueue(msg) {
			msg = nil // enqueue released it
			return
		}
		msg = s.getMsg()
	}
}

// enqueue hands msg to the ingest queue through queue.Offer under the
// configured overflow policy. It returns false only when the server is
// stopping. Ownership: a true return means the queue took msg (or, under
// DropNewest, enqueue already released it); a false return means enqueue
// released it. Either way the caller must not touch msg again.
func (s *Server) enqueue(msg *packet.Message) bool {
	//pnmlint:allow wallclock ingest latency observability, never reaches verdicts
	it := item{msg: msg, at: time.Now().UnixNano()}
	if s.cfg.Epochs != nil {
		// Stamp the topology epoch current at enqueue — the transport
		// twin of netsim's arrival stamp.
		it.epoch = s.cfg.Epochs.Current().Version
	}
	switch queue.Offer(s.ingest, it, s.cfg.Policy, s.stop, nil, s.c.queueFullBlocks.Inc, s.evict) {
	case queue.Refused:
		s.c.queueDropNewest.Inc()
		s.putMsg(msg)
	case queue.Stopped:
		// The undelivered frame joins the close-time drop ledger.
		s.c.droppedOnClose.Inc()
		s.putMsg(msg)
		return false
	}
	return true
}

// evict releases a frame DropOldest pushed out of the ingest queue.
func (s *Server) evict(old item) {
	s.c.queueDropOldest.Inc()
	s.putMsg(old.msg)
}

// sinkLoop is the single goroutine that owns folding: it blocks for one
// item, greedily drains whatever else has arrived (up to the queue
// depth), and folds the batch. Fault events fire here, at
// processed-frame milestones, so crash/restore serializes with folding by
// construction.
func (s *Server) sinkLoop() {
	defer s.wg.Done()
	processed := 0
	chaos := 0
	batch := make([]item, 0, s.cfg.QueueDepth)
	for {
		// Shutdown has priority over further folding: once stop closes,
		// whatever is still queued stays there for Close's drain, which
		// counts it as dropped_on_close — otherwise the select below could
		// keep picking ready frames over the closed stop channel and the
		// ledger would race the shutdown.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case it := <-s.ingest:
			batch = append(batch[:0], it)
		drain:
			for len(batch) < s.cfg.QueueDepth {
				select {
				case it = <-s.ingest:
					batch = append(batch, it)
				default:
					break drain
				}
			}
			processed += len(batch)
			s.fold(batch)
			s.releaseBatch(batch)
			for s.cfg.Faults != nil && chaos < len(s.cfg.Faults.Events) &&
				processed >= s.cfg.Faults.Events[chaos].At {
				s.applyChaos(s.cfg.Faults.Events[chaos])
				chaos++
			}
		}
	}
}

// fold runs one batch through the sink host, which verifies each frame
// outside its lock and takes the lock once to fold it: a Verdict or
// Delivered read waits behind one fold, never behind a batch of MAC
// checks. While the sink is down the host drops every frame. The
// delivered count and the progress broadcast are published once per
// batch, after every frame in it is folded.
func (s *Server) fold(batch []item) {
	folded := 0
	for i := range batch {
		if s.sink.Fold(*batch[i].msg, batch[i].epoch) {
			folded++
		}
	}
	if folded < len(batch) {
		s.c.droppedWhileDown.Add(uint64(len(batch) - folded))
	}
	if folded == 0 {
		return
	}
	//pnmlint:allow wallclock ingest latency observability, never reaches verdicts
	now := time.Now().UnixNano()
	for i := range batch {
		if d := now - batch[i].at; d > 0 {
			s.c.ingestLatencyUs.Observe(uint64(d) / 1000)
		} else {
			s.c.ingestLatencyUs.Observe(0)
		}
	}
	s.c.batches.Inc()
	s.c.batchOccupancy.Observe(uint64(len(batch)))
	s.c.delivered.Add(uint64(folded))
	s.sink.Publish(folded)
}

// applyChaos executes one sink event on the sink goroutine.
func (s *Server) applyChaos(ev fault.Event) {
	switch ev.Kind {
	case fault.SinkCrash:
		if s.sink.Crash() {
			s.c.chaosCrashes.Inc()
		}
	case fault.SinkRestore:
		if s.sink.Restore() {
			s.c.chaosRestores.Inc()
		}
	}
}

// Delivered returns how many messages have been folded into the tracker.
func (s *Server) Delivered() int { return s.sink.Delivered() }

// Verdict returns the sink's current traceback conclusion.
func (s *Server) Verdict() sink.Verdict { return s.sink.Verdict() }

// WaitDelivered blocks until at least want messages have been folded or
// the timeout elapses, parking on the sink's progress broadcast.
func (s *Server) WaitDelivered(want int, timeout time.Duration) error {
	//pnmlint:allow wallclock real timeout while live goroutines deliver
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	if s.sink.Await(func(got int) bool { return got >= want }, timer.C, s.stop) {
		return nil
	}
	if s.stopping() {
		return fmt.Errorf("transport: server closed after %d of %d deliveries", s.Delivered(), want)
	}
	return fmt.Errorf("transport: delivered %d of %d before timeout", s.Delivered(), want)
}

// Close stops the listeners and every goroutine, then waits for them.
// Safe to call more than once; verdicts remain readable. Frames still in
// the ingest queue when the goroutines have drained out are dropped here
// — and counted (transport.ingest.dropped_on_close), so the ledger
// invariant holds exactly at rest: every ingested frame is delivered, a
// policy drop, dropped while the sink was down, or dropped on close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.ln.Close()
		if s.udp != nil {
			s.udp.Close()
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	s.drainOnce.Do(func() {
		undelivered := 0
	drain:
		for {
			select {
			case it := <-s.ingest:
				undelivered++
				s.putMsg(it.msg)
			default:
				break drain
			}
		}
		if undelivered > 0 {
			s.c.droppedOnClose.Add(uint64(undelivered))
		}
	})
}
