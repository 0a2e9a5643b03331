package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pnm/internal/obs"
	"pnm/internal/sink"
	"pnm/internal/topology"
	"pnm/internal/transport"
)

// deliverTimeout bounds every wait for the sink to fold what was sent.
const deliverTimeout = 60 * time.Second

// newVerifier builds the verifier chain the server runs: the topology
// resolver over the epoch set, optionally decorated by wrap.
func newVerifier(d *deployment, set *topology.EpochSet, wrap func(sink.Resolver) sink.Resolver) sink.Verifier {
	var r sink.Resolver = sink.NewTopologyResolverEpochs(d.keys, set)
	if wrap != nil {
		r = wrap(r)
	}
	v, err := sink.NewVerifier(d.scheme, d.keys, d.topo.NumNodes(), r)
	if err != nil {
		// The scheme is always PNM with a resolver; this cannot fail.
		panic(fmt.Sprintf("bench: verifier: %v", err))
	}
	return v
}

// liveSink is one ingest server as pnmserve runs it (default config, obs
// bound) plus the single TCP connection the benchmark feeds it through.
type liveSink struct {
	srv  *transport.Server
	conn net.Conn
	reg  *obs.Registry
	set  *topology.EpochSet
	s    *stream
	// epoch is the newest epoch advanced into set.
	epoch int
}

// startSink is one cold sink start-up: it rebuilds the deployment
// (topology and key store) from the seed, listens on loopback, connects,
// and folds the stream's warm-up frames.
func startSink(w workload, seed int64, s *stream) (*liveSink, error) {
	d, err := w.deploy(seed)
	if err != nil {
		return nil, err
	}
	set := topology.NewEpochSet(d.topo)
	reg := obs.New()
	cfg := transport.Config{
		NewVerifier: func() sink.Verifier { return newVerifier(d, set, nil) },
		Topo:        d.topo,
		Obs:         reg,
	}
	if s.epochLen > 0 {
		cfg.Epochs = set
	}
	srv, err := transport.Listen("127.0.0.1:0", "", cfg)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveSink{srv: srv, conn: conn, reg: reg, set: set, s: s}
	if err := ls.sendClosed(0, s.warm); err != nil {
		ls.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return ls, nil
}

// close stops the connection and the server and waits for both.
func (ls *liveSink) close() {
	ls.conn.Close()
	ls.srv.Close()
}

// advance moves the server's topology to frame i's epoch. Every earlier
// frame is folded first, so the server stamps each frame with the epoch
// it was marked under.
func (ls *liveSink) advance(i int) error {
	e := int(ls.s.epoch(i))
	if e <= ls.epoch {
		return nil
	}
	if err := ls.srv.WaitDelivered(i, deliverTimeout); err != nil {
		return err
	}
	for ; ls.epoch < e; ls.epoch++ {
		ls.set.Advance(ls.s.nets[ls.epoch+1])
	}
	return nil
}

// segmentEnd returns the end of the run of frames starting at i that
// share i's epoch, capped at limit.
func (ls *liveSink) segmentEnd(i, limit int) int {
	if ls.s.epochLen == 0 {
		return limit
	}
	return min(limit, (i/ls.s.epochLen+1)*ls.s.epochLen)
}

// sendClosed writes frames [from, to) as fast as the connection takes
// them and waits until the sink has folded them all.
func (ls *liveSink) sendClosed(from, to int) error {
	for i := from; i < to; {
		if err := ls.advance(i); err != nil {
			return err
		}
		j := ls.segmentEnd(i, to)
		if _, err := ls.conn.Write(ls.s.bytes(i, j)); err != nil {
			return fmt.Errorf("write frames: %w", err)
		}
		i = j
	}
	return ls.srv.WaitDelivered(to, deliverTimeout)
}

// ledger is a closed server's account of the frames sent to it.
type ledger struct {
	delivered int
	rejected  uint64 // frames the decoder refused
	dropped   uint64 // frames a queue policy, an outage or shutdown dropped
}

var rejectCounters = []string{
	"transport.decode.bad_magic", "transport.decode.bad_version", "transport.decode.bad_type",
	"transport.decode.frame_too_big", "transport.decode.truncated", "transport.decode.bad_payload",
}

var dropCounters = []string{
	"transport.ingest.queue_drop_newest", "transport.ingest.queue_drop_oldest",
	"transport.ingest.dropped_on_close", "transport.chaos.dropped_while_down",
}

// finish reads the sink's final verdict and ledger, then closes it. The
// ledger is read first: once every frame is delivered, a read error that
// Close provokes on the server's side of the connection is not a frame.
func (ls *liveSink) finish() (sink.Verdict, ledger) {
	l := ledger{delivered: ls.srv.Delivered()}
	for _, name := range rejectCounters {
		l.rejected += ls.reg.Counter(name).Value()
	}
	for _, name := range dropCounters {
		l.dropped += ls.reg.Counter(name).Value()
	}
	v := ls.srv.Verdict()
	ls.close()
	return v, l
}

// windows is how many equal slices of frames a phase is cut into. A
// throughput or tail metric is the median over the windows, so a burst of
// interference from outside the process (a stolen vCPU stalls it for tens
// of milliseconds) spoils one window, not the run.
const windows = 10

// refNominalNs is what hostRefNs reads on the 2-vCPU Xeon VM the bounds
// in BENCHMARK.json were calibrated on.
const refNominalNs = 150

// hostRefNs times a fixed stdlib loop — SHA-256 of one 64-byte block — and
// returns the best of three 10,000-hash rounds in ns per hash. No change
// to this repository can move it, so it tracks the host alone: on a
// shared VM the same binary's throughput drifts by 20% from one minute to
// the next, and the loop's time drifts with it.
func hostRefNs() float64 {
	var block [64]byte
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for i := 0; i < 10_000; i++ {
			sum := sha256.Sum256(block[:])
			block[0] ^= sum[0]
		}
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/10_000)
	}
	return best
}

// saturation is the closed-loop phase's outcome.
type saturation struct {
	// rawPps, pps and cpuUs hold one value per window: frames folded per
	// second as measured and scaled to refNominalNs, and process CPU
	// microseconds per frame folded, scaled likewise.
	rawPps, pps, cpuUs []float64
	// refNs is the host reference read between the windows.
	refNs          []float64
	heapRetainedMB float64
	// batches and batchedFrames count the sink's fold batches, and
	// queueFullBlocks the reader's stalls on a full ingest queue.
	batches, batchedFrames, queueFullBlocks uint64
}

// saturate streams every frame after the warm-up, window by window, as
// fast as queue.Block backpressure through the TCP window admits them.
// Each window is timed from its first byte until the sink has folded its
// last frame, and scaled by the host reference read on either side of it.
// heap0 is the heap in use before the sink started; the sink stays open
// while the heap it retains is read.
func saturate(ls *liveSink, heap0 uint64) (saturation, error) {
	occupancy := ls.reg.Histogram("transport.ingest.batch_occupancy")
	blocks := ls.reg.Counter("transport.ingest.queue_full_blocks")
	batches0, batched0, blocks0 := occupancy.Count(), occupancy.Sum(), blocks.Value()
	from, to := ls.s.warm, ls.s.len()
	out := saturation{refNs: []float64{hostRefNs()}}
	for i := 0; i < windows; i++ {
		a, b := from+(to-from)*i/windows, from+(to-from)*(i+1)/windows
		if a == b {
			continue
		}
		cpu0 := cpuSeconds()
		t0 := time.Now()
		if err := ls.sendClosed(a, b); err != nil {
			return saturation{}, err
		}
		seconds, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		out.refNs = append(out.refNs, hostRefNs())
		scale := (out.refNs[len(out.refNs)-2] + out.refNs[len(out.refNs)-1]) / 2 / refNominalNs
		out.rawPps = append(out.rawPps, float64(b-a)/seconds)
		out.pps = append(out.pps, float64(b-a)/seconds*scale)
		out.cpuUs = append(out.cpuUs, cpu*1e6/float64(b-a)/scale)
	}
	out.batches = occupancy.Count() - batches0
	out.batchedFrames = occupancy.Sum() - batched0
	out.queueFullBlocks = blocks.Value() - blocks0
	out.heapRetainedMB = float64(int64(heapInUse())-int64(heap0)) / (1 << 20)
	return out, nil
}

// delivery is one observation of how far the sink has folded.
type delivery struct {
	delivered int
	at        time.Duration // since the phase started
}

// watchDeliveries records the sink's delivered count at every fold batch,
// on its own goroutine, until it reaches to or the server stops. The
// returned channel yields the observations once, then closes.
func watchDeliveries(srv *transport.Server, from, to int, t0 time.Time) <-chan watched {
	out := make(chan watched, 1)
	go func() {
		defer close(out)
		w := watched{ds: []delivery{{delivered: from}}}
		for got := from; got < to; {
			if w.err = srv.WaitDelivered(got+1, deliverTimeout); w.err != nil {
				break
			}
			at := time.Since(t0)
			got = srv.Delivered()
			w.ds = append(w.ds, delivery{delivered: got, at: at})
		}
		out <- w
	}()
	return out
}

// watched is what watchDeliveries saw.
type watched struct {
	ds  []delivery
	err error
}

// reached returns the first observation with at least n frames delivered.
func reached(ds []delivery, n int) delivery {
	return ds[sort.Search(len(ds), func(i int) bool { return ds[i].delivered >= n })]
}

// openLoop is the fixed-rate phase's outcome.
type openLoop struct {
	// latencyMs is, per frame, the time from its write to the completion
	// of the fold batch holding it; lagMs is how late the write ran.
	latencyMs, lagMs []float64
	readUs           []float64 // Server.Verdict calls made beside the writes
	// ingestUs is the server's enqueue-to-fold histogram over the phase.
	ingestUs []obs.Bucket
}

// verdictReadHz is how often an operator's scrape reads the verdict.
const verdictReadHz = 200

// tickMs is the open loop's release period in milliseconds. Two periods
// were tried: with 2 ms, keyed-2k's bursts of five packets queue behind
// any one of them that needs a near-full BFS, and its p95 latency spread
// over ten runs doubled (0.11 to 0.21).
const tickMs = 1

// runOpenLoop sends the frames after the warm-up on a fixed schedule of
// rate packets per second, whether or not the sink keeps up. The frames
// due in each tick go out in one write, as from a gateway that forwards
// what its radios received every tickMs. A watcher stamps each frame's
// completion when the fold batch holding it is delivered, and a reader
// calls Server.Verdict at verdictReadHz.
//
// Latency runs from the write, not from the tick, so the timer's
// overshoot is not counted against the sink. How late each write ran is
// reported as lag, and measure fails the run when it grows.
func runOpenLoop(ls *liveSink, rate int) (openLoop, error) {
	s := ls.s
	m := s.len() - s.warm
	// Frame k is due at the start of tick k*1000/(rate*tickMs); by the end
	// of tick T, the first ceil((T+1)*tickMs*rate/1000) frames are due.
	due := func(k int) time.Duration { return time.Duration(k*1000/(rate*tickMs)*tickMs) * time.Millisecond }
	dueBy := func(tick int) int { return ((tick+1)*tickMs*rate + 999) / 1000 }
	var out openLoop
	lag := make([]float64, m)
	sent := make([]time.Duration, m)
	ingest := ls.reg.Histogram("transport.ingest.latency_us")
	ingest0 := ingest.Buckets()

	t0 := time.Now()
	watch := watchDeliveries(ls.srv, s.warm, s.len(), t0)
	stopReads := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		tick := time.NewTicker(time.Second / verdictReadHz)
		defer tick.Stop()
		for {
			select {
			case <-stopReads:
				return
			case <-tick.C:
				start := time.Now()
				ls.srv.Verdict()
				out.readUs = append(out.readUs, float64(time.Since(start))/float64(time.Microsecond))
			}
		}
	}()

	sendErr := func() error {
		for k := 0; k < m; {
			if err := ls.advance(s.warm + k); err != nil {
				return err
			}
			now := time.Since(t0)
			j := min(m, dueBy(int(now/(tickMs*time.Millisecond))), ls.segmentEnd(s.warm+k, s.len())-s.warm)
			if j <= k {
				time.Sleep(due(k) - now)
				continue
			}
			if _, err := ls.conn.Write(s.bytes(s.warm+k, s.warm+j)); err != nil {
				return fmt.Errorf("write frames: %w", err)
			}
			for ; k < j; k++ {
				sent[k] = now
				lag[k] = ms(now - due(k))
			}
		}
		return nil
	}()
	if sendErr != nil {
		ls.srv.Close() // unblocks the watcher
	}
	w := <-watch
	close(stopReads)
	<-read
	if err := errors.Join(sendErr, w.err); err != nil {
		return openLoop{}, err
	}
	out.lagMs = lag
	out.ingestUs = bucketsSince(ingest.Buckets(), ingest0)
	out.latencyMs = make([]float64, m)
	for k := range out.latencyMs {
		out.latencyMs[k] = ms(reached(w.ds, s.warm+k+1).at - sent[k])
	}
	return out, nil
}

// heapInUse returns the live heap after full collections. The second
// collection frees what the first only moved to sync.Pool victim caches.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// windowedQuantile is the median over windows of xs's q-quantiles.
func windowedQuantile(xs []float64, q float64) float64 {
	var per []float64
	for i := 0; i < windows; i++ {
		if w := xs[len(xs)*i/windows : len(xs)*(i+1)/windows]; len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return quantile(per, 0.50)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, leaving xs as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// bucketsSince returns the histogram samples in now that were not yet in
// the earlier snapshot before.
func bucketsSince(now, before []obs.Bucket) []obs.Bucket {
	had := make(map[uint64]uint64, len(before))
	for _, b := range before {
		had[b.Bound] = b.Count
	}
	var out []obs.Bucket
	for _, b := range now {
		if n := b.Count - had[b.Bound]; n > 0 {
			out = append(out, obs.Bucket{Bound: b.Bound, Count: n})
		}
	}
	return out
}

// histQuantile estimates the q-quantile of a histogram's buckets,
// interpolating linearly inside the power-of-two bucket that holds it.
func histQuantile(buckets []obs.Bucket, q float64) float64 {
	var count float64
	for _, b := range buckets {
		count += float64(b.Count)
	}
	want := q * count
	var seen float64
	for _, b := range buckets {
		lo := float64(b.Bound / 2)
		if b.Bound == 1 {
			lo = 0
		}
		if seen+float64(b.Count) >= want {
			return lo + (want-seen)/float64(b.Count)*(float64(b.Bound)-lo)
		}
		seen += float64(b.Count)
	}
	return 0
}
