package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
	// the stamp to mean anything). The stamp pins its epoch
	// (EpochSet.Stamp) until the frame leaves the server — folded,
	// dropped by a queue policy or an outage, or dropped on Close — so
	// the set retains only the epochs queued frames still carry, plus the
	// current one: its history stays bounded however long the server
	// runs, and an epoch a reader of the set needs after the server
	// released it reads as the oldest retained one. nil keeps every frame
	// on the base epoch — byte-identical to the pre-epoch server, which
	// is what the loopback-equivalence tests pin; the verifier chain's
	// set must then not advance, as nothing pins epoch 0.
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
	// the live server. Events fire on the sink goroutine at exact
	// processed-frame milestones: an event at At fires once exactly At
	// frames were dequeued, delivered or not (before the first frame when
	// At ≤ 0). Frames dequeued while the sink is down are dropped and
	// counted, exactly like the simulator's sink outage, so an outage
	// drops restore.At − crash.At frames. Node and link events have no
	// meaning in front of a socket, and Listen rejects them.
	Faults *fault.Plan
}

// frame is the pooled object a queue item points to: one decoded
// message, the payload bytes it was decoded from — the bytes the
// verifier MACs — and its reader's path matches (empty when the server's
// chain has no topology resolver to match against). The frame owns the
// payload buffer, which putFrame bounds at steadyPayloadBytes.
type frame struct {
	msg     packet.Message
	payload []byte
	matches sink.Matches
}

// read fills f from fr's next frame: the payload into f's own buffer
// and the message decoded from it.
// pnmlint:noalloc
func (f *frame) read(fr *FrameReader) error {
	var err error
	f.payload, err = fr.readInto(&f.msg, f.payload)
	return err
}

// decodeDatagram fills f from one datagram b: the message, and a copy of
// b's payload in f's own buffer, since the socket's read buffer is
// reused for the next datagram.
// pnmlint:noalloc
func (f *frame) decodeDatagram(b []byte, limits Limits) error {
	if err := DecodeDatagramInto(&f.msg, b, limits); err != nil {
		return err
	}
	f.payload = payloadBuf(f.payload, len(b)-FrameHeaderLen)
	copy(f.payload, b[FrameHeaderLen:])
	return nil
}

// item is one ingested frame annotated with the instant of the socket
// read that delivered it, so the sink goroutine can histogram
// read-to-fold latency. The frame is pooled: see Server.frames for the
// ownership rule.
type item struct {
	f  *frame
	at int64 // UnixNano just after the socket read that completed the frame
	// epoch is the topology epoch current at enqueue (always 0 without
	// Config.Epochs); verification resolves the frame against it. With
	// Config.Epochs the item holds a pin on it, handed back exactly once
	// by whichever path the frame leaves through (unpinBatch or drop).
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

	proberProbes    *obs.Counter
	proberMatched   *obs.Counter
	proberUnmatched *obs.Counter

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
	c.proberProbes = reg.Counter("transport.prober.probes")
	c.proberMatched = reg.Counter("transport.prober.marks_matched")
	c.proberUnmatched = reg.Counter("transport.prober.marks_unmatched")
	c.delivered = reg.Counter("transport.delivered")
	c.batches = reg.Counter("transport.ingest.batches")
	c.batchOccupancy = reg.Histogram("transport.ingest.batch_occupancy")
	// Measured from the socket read that delivered the frame (its
	// reader's one clock reading per read) to the end of its batch's fold.
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

	// frames pools the *frame values flowing reader → queue → sink, so
	// steady-state ingest recycles mark, payload and match storage
	// instead of allocating per frame. Ownership rule (see DESIGN.md
	// §13): exactly one goroutine owns a pooled frame at any instant. A
	// reader owns what it got from the pool until enqueue returns — it
	// reads the payload, decodes the message and its prober fills the
	// matches while it does; a true return transfers ownership to the
	// queue (or, under DropNewest, the frame was already released), false
	// means enqueue released it. The sink goroutine owns everything it
	// dequeues and releases the whole batch after fold returns — the
	// verifiers copy what they keep, so nothing downstream aliases a
	// released frame. Close releases what it drains. The pool itself is
	// concurrency-safe; the frames are not.
	frames sync.Pool

	// downDrops counts the frames dropped while the sink was down. The
	// sink goroutine adds to it before each Publish, so a processed-count
	// waiter (WaitProcessed) sees every drop.
	downDrops atomic.Int64

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

// getFrame takes a frame from the pool; the caller owns it until it
// hands it to enqueue or releases it with putFrame.
func (s *Server) getFrame() *frame {
	if f, ok := s.frames.Get().(*frame); ok {
		return f
	}
	return new(frame)
}

// putFrame releases a frame back to the pool (nil is a no-op). The mark,
// match and payload storage is kept — its capacity is what steady-state
// ingest reuses. Marks and matches are bounded by Limits.MaxMarks, and a
// payload buffer over steadyPayloadBytes is dropped, so a pooled frame
// can never pin more than one hostile frame's worth of marks or more
// than steadyPayloadBytes of payload. The next read overwrites the
// payload, the next probe the matches.
func (s *Server) putFrame(f *frame) {
	if f == nil {
		return
	}
	f.msg.Marks = f.msg.Marks[:0]
	if cap(f.payload) > steadyPayloadBytes {
		f.payload = nil
	}
	s.frames.Put(f)
}

// releaseBatch returns every frame in a folded (or dropped) batch to
// the pool — the sink goroutine's half of the ownership hand-off.
func (s *Server) releaseBatch(batch []item) {
	for i := range batch {
		s.putFrame(batch[i].f)
		batch[i].f = nil
	}
}

// unpinBatch hands back a verified batch's epoch pins (a no-op without
// Config.Epochs), one Done per run of equal stamps: a batch inside one
// epoch costs one call. Every frame's pin goes back exactly once, here
// or in drop. Evidence that must outlive its frame (a relation
// stamped with the epoch it was seen in) would keep its frame's pin here
// instead of handing it back, and return it when the evidence retires.
func (s *Server) unpinBatch(batch []item) {
	if s.cfg.Epochs == nil {
		return
	}
	run := 0
	for i := range batch {
		run++
		if i+1 == len(batch) || batch[i+1].epoch != batch[i].epoch {
			s.cfg.Epochs.Done(batch[i].epoch, run)
			run = 0
		}
	}
}

// drop releases a frame that leaves the server unverified, a queue
// policy's or Close's: it goes back to the pool and its epoch pin back
// to the set.
func (s *Server) drop(it item) {
	if s.cfg.Epochs != nil {
		s.cfg.Epochs.Done(it.epoch, 1)
	}
	s.putFrame(it.f)
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

// reader is one socket reader's ingest state: its prober, the clock
// reading of its last socket read, and the frame, byte and probe counts
// it tallies in plain fields. It publishes the tallies wherever it may
// wait: before a socket read (Read), before handing the queue a frame
// that leaves it with nothing buffered, in the queue's stall callback
// before a Block wait, and on exit. So the shared transport.frames,
// transport.bytes and transport.prober.* counters are exact whenever the
// reader waits, and take a few updates per socket read instead of five
// per frame.
//
// pnmlint:single-goroutine — the tallies, the prober and the clock
// reading are unsynchronized; one read loop owns a reader.
type reader struct {
	s    *Server
	conn net.Conn     // nil on the datagram path, which reads itself
	fr   *FrameReader // conn's frame reader; nil on the datagram path
	// prober is the reader's own resolver, which only probes: it matches
	// each frame's anonymous marks while the reader owns the frame. nil
	// when the chain has nothing to match against.
	prober *sink.TopologyResolver
	at     int64 // UnixNano just after the last socket read returned
	frames uint64
	bytes  uint64
	// probes, matched and unmatched tally the prober's AnonIDs hashed and
	// the marks it matched and left to the sink.
	probes, matched, unmatched uint64
	// stall is onStall bound once, the queue's stall callback.
	stall func()
}

// newReader returns the ingest state of one read loop over conn (nil for
// the datagram socket), with its own prober.
func (s *Server) newReader(conn net.Conn) *reader {
	r := &reader{s: s, conn: conn, prober: s.sink.NewProber()}
	r.stall = r.onStall
	return r
}

// Read is the connection under a read loop's FrameReader: it publishes
// the tallies, since the read may block, reads, and reads the clock once.
// Every frame the read completes is stamped with that instant.
func (r *reader) Read(p []byte) (int, error) {
	r.publish()
	n, err := r.conn.Read(p)
	//pnmlint:allow wallclock ingest latency observability, never reaches verdicts
	r.at = time.Now().UnixNano()
	return n, err
}

// publish adds the tallied counts to the shared counters.
// pnmlint:noalloc
func (r *reader) publish() {
	if r.frames > 0 {
		r.s.c.frames.Add(r.frames)
		r.frames = 0
	}
	if r.bytes > 0 {
		r.s.c.bytes.Add(r.bytes)
		r.bytes = 0
	}
	if r.probes > 0 {
		r.s.c.proberProbes.Add(r.probes)
		r.probes = 0
	}
	if r.matched > 0 {
		r.s.c.proberMatched.Add(r.matched)
		r.matched = 0
	}
	if r.unmatched > 0 {
		r.s.c.proberUnmatched.Add(r.unmatched)
		r.unmatched = 0
	}
}

// probe has r's prober, when it has one, match f's anonymous marks in
// the tree of epoch, and tallies the frame's counts: the AnonIDs hashed,
// the marks matched and the marks left to the sink's search.
// pnmlint:noalloc
func (r *reader) probe(f *frame, epoch topology.EpochVersion) {
	if r.prober == nil {
		return
	}
	probes, matched := r.prober.Probe(&f.msg, epoch, &f.matches)
	r.probes += uint64(probes)
	r.matched += uint64(matched)
	r.unmatched += uint64(len(f.msg.Marks) - matched)
}

// onStall runs before a Block wait on a full queue: the reader may wait
// there, so it publishes first.
func (r *reader) onStall() {
	r.publish()
	r.s.c.queueFullBlocks.Inc()
}

// readLoop decodes one connection's frame stream into the ingest queue,
// probing each frame's anonymous marks on its reader's prober.
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
	r := s.newReader(conn)
	defer r.publish()
	r.fr = NewFrameReader(r, s.cfg.Limits)
	f := s.getFrame()
	defer func() {
		if f != nil {
			s.putFrame(f)
		}
	}()
	for {
		if err := f.read(r.fr); err != nil {
			if err == io.EOF || errors.Is(err, net.ErrClosed) || s.stopping() {
				// The peer hung up, or Close shut the connection under the
				// read: a clean exit, not a malformed frame.
				return
			}
			s.c.countDecodeErr(err)
			if Recoverable(err) {
				continue // f holds no marks; reuse it for the next frame
			}
			return
		}
		r.frames++
		r.bytes += uint64(FrameHeaderLen + len(f.payload))
		if !s.enqueue(f, r) {
			f = nil // enqueue released it
			return  // server stopping
		}
		f = s.getFrame()
	}
}

// udpLoop decodes datagrams — one frame each — into the ingest queue,
// probing each on its reader's prober as readLoop does. Every
// rejection is per-datagram and counted; read errors go through retry,
// as acceptLoop's do.
func (s *Server) udpLoop() {
	defer s.wg.Done()
	buf := make([]byte, s.cfg.Limits.MaxFrameBytes+FrameHeaderLen)
	r := s.newReader(nil)
	defer r.publish()
	f := s.getFrame()
	defer func() {
		if f != nil {
			s.putFrame(f)
		}
	}()
	delay := time.Millisecond
	for {
		n, _, err := s.udp.ReadFrom(buf)
		//pnmlint:allow wallclock ingest latency observability, never reaches verdicts
		r.at = time.Now().UnixNano()
		if err != nil {
			if s.retry(err, s.c.udpReadErrors, &delay) {
				continue
			}
			return
		}
		delay = time.Millisecond
		s.c.udpDatagrams.Inc()
		s.c.udpBytes.Add(uint64(n))
		if err := f.decodeDatagram(buf[:n], s.cfg.Limits); err != nil {
			s.c.countDecodeErr(err)
			continue // f holds no marks; reuse it for the next datagram
		}
		if !s.enqueue(f, r) {
			f = nil // enqueue released it
			return
		}
		f = s.getFrame()
	}
}

// enqueue stamps f with r's last read instant and the current epoch, has
// r's prober (when non-nil) match its anonymous marks in the stamped
// epoch's tree, and hands it to the ingest queue through queue.Offer
// under the configured overflow policy. When r has nothing buffered —
// its next read goes to the socket, and a datagram reader never buffers
// — r publishes its tallies first, so a frame that ends a burst is
// counted before the sink can fold it. It returns false only when the
// server is stopping. Ownership: a true return means the queue took f (or,
// under DropNewest, enqueue already released it); a false return means
// enqueue released it. Either way the caller must not touch f again.
func (s *Server) enqueue(f *frame, r *reader) bool {
	it := item{f: f, at: r.at}
	if s.cfg.Epochs != nil {
		// Stamp and pin the topology epoch current at enqueue — the
		// transport twin of netsim's arrival stamp.
		it.epoch = s.cfg.Epochs.Stamp()
	}
	r.probe(f, it.epoch)
	if r.fr == nil || r.fr.br.Buffered() == 0 {
		r.publish()
	}
	// Each drop path hands the frame back before counting it, so a
	// reader that sees the ledger balance sees every pin returned.
	switch queue.Offer(s.ingest, it, s.cfg.Policy, s.stop, nil, r.stall, s.evict) {
	case queue.Refused:
		s.drop(it)
		s.c.queueDropNewest.Inc()
	case queue.Stopped:
		// The undelivered frame joins the close-time drop ledger.
		s.drop(it)
		s.c.droppedOnClose.Inc()
		return false
	}
	return true
}

// evict releases a frame DropOldest pushed out of the ingest queue.
func (s *Server) evict(old item) {
	s.drop(old)
	s.c.queueDropOldest.Inc()
}

// sinkLoop is the single goroutine that owns folding: it blocks for one
// item, greedily drains whatever else has arrived (up to the queue
// depth), and folds the batch. Fault events fire here, at exact
// processed-frame milestones: a batch that crosses one is split there,
// so crash/restore serializes with folding by construction and an outage
// drops exactly the frames between its two events.
func (s *Server) sinkLoop() {
	defer s.wg.Done()
	var events []fault.Event
	if s.cfg.Faults != nil {
		events = s.cfg.Faults.Events
	}
	processed := 0
	chaos := 0
	// fire applies every event due at processed, so that afterwards the
	// next event's milestone lies ahead.
	fire := func() {
		for chaos < len(events) && processed >= events[chaos].At {
			s.applyChaos(events[chaos])
			chaos++
		}
	}
	fire()
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
			for rest := batch; len(rest) > 0; {
				n := len(rest)
				if chaos < len(events) {
					n = min(n, events[chaos].At-processed)
				}
				s.fold(rest[:n])
				processed += n
				rest = rest[n:]
				fire()
			}
			s.releaseBatch(batch)
		}
	}
}

// fold runs one batch through the sink host, which verifies each frame
// over its payload, with its reader's matches, outside its lock and
// takes the lock once to fold it: a Verdict or Delivered read waits
// behind one fold, never behind a batch of MAC checks. While the sink is down the host drops
// every frame. Once the batch is verified its epoch pins are handed
// back; then the delivered count and the progress broadcast are
// published, once per batch, so a waiter that sees a frame delivered
// sees its pin returned. A batch the outage dropped whole still wakes
// the waiters, for WaitProcessed.
func (s *Server) fold(batch []item) {
	folded := 0
	for i := range batch {
		f := batch[i].f
		f.matches.SetWire(f.payload)
		if s.sink.Fold(f.msg, batch[i].epoch, &f.matches) {
			folded++
		}
		f.matches.SetWire(nil)
	}
	s.unpinBatch(batch)
	if dropped := len(batch) - folded; dropped > 0 {
		s.c.droppedWhileDown.Add(uint64(dropped))
		s.downDrops.Add(int64(dropped))
	}
	if folded == 0 {
		s.sink.Publish(0)
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

// Processed returns how many dequeued frames the sink goroutine has
// finished with: folded, or dropped while the sink was down.
func (s *Server) Processed() int { return s.Delivered() + int(s.downDrops.Load()) }

// WaitProcessed blocks until at least want frames have been processed
// (see Processed) or the timeout elapses. Unlike WaitDelivered it
// returns under a fault plan whose outage drops frames: an outage drops
// restore.At − crash.At of them, which no delivered count makes up.
func (s *Server) WaitProcessed(want int, timeout time.Duration) error {
	return s.await(want, timeout, "processed frames", func(delivered int) int {
		return delivered + int(s.downDrops.Load())
	})
}

// WaitDelivered blocks until at least want messages have been folded or
// the timeout elapses.
func (s *Server) WaitDelivered(want int, timeout time.Duration) error {
	return s.await(want, timeout, "deliveries", func(delivered int) int { return delivered })
}

// await parks on the sink's progress broadcast until count, given the
// delivered count, reaches want, or the timeout elapses or the server
// closes; what names the count in the error.
func (s *Server) await(want int, timeout time.Duration, what string, count func(delivered int) int) error {
	//pnmlint:allow wallclock real timeout while live goroutines deliver
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	if s.sink.Await(func(got int) bool { return count(got) >= want }, timer.C, s.stop) {
		return nil
	}
	got := count(s.Delivered())
	if s.stopping() {
		return fmt.Errorf("transport: server closed after %d of %d %s", got, want, what)
	}
	return fmt.Errorf("transport: %d of %d %s before timeout", got, want, what)
}

// Close stops the listeners and every goroutine, then waits for them.
// Safe to call more than once; verdicts remain readable. Frames still in
// the ingest queue when the goroutines have drained out are dropped here
// — and counted (transport.ingest.dropped_on_close), so the ledger
// invariant holds exactly at rest: every ingested frame is delivered, a
// policy drop, dropped while the sink was down, or dropped on close.
// Every one of them has handed its epoch pin back, so a Config.Epochs
// set holds no pins after Close and retains only its current epoch.
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
				s.drop(it)
			default:
				break drain
			}
		}
		if undelivered > 0 {
			s.c.droppedOnClose.Add(uint64(undelivered))
		}
	})
}
