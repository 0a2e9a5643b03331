package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"pnm/internal/analytic"
	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// ScaleBenchConfig parameterizes the multicore-scaling benchmark
// committed as BENCH_scale.json: the keyed-source workload (see
// keyedGen) folded by the serial tracker and by the pipeline at each
// worker count, with wall time and allocation columns per
// configuration. Every row records GOMAXPROCS
// and NumCPU at measurement time, so a 1-core container's rows are
// honest about what they measured: determinism always, speedup only
// when the hardware could deliver one.
type ScaleBenchConfig struct {
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// Hosts is how many distinct deepest nodes the keyed sources cycle
	// through.
	Hosts int `json:"hosts"`
	// Sources is the keyed-source count each configuration folds (one
	// packet per source).
	Sources int `json:"sources"`
	// Workers lists the pipeline worker counts to sweep.
	Workers []int `json:"workers"`
	// BatchLen is the lockstep generation/fold batch size.
	BatchLen int `json:"batch_len"`
	// Seed drives topology and marking.
	Seed int64 `json:"seed"`
}

// DefaultScaleBench sweeps W1→W8 pipeline workers over the 2k-node
// keyed workload — the roadmap's "multicore truth" matrix.
func DefaultScaleBench() ScaleBenchConfig {
	return ScaleBenchConfig{
		Nodes:    2048,
		Hosts:    64,
		Sources:  100_000,
		Workers:  []int{1, 2, 4, 8},
		BatchLen: 1024,
		Seed:     17,
	}
}

// ScaleBenchRow is one sink configuration's measurement. Rows must agree
// on VerdictHash, MarksVerified and Stops with the serial baseline —
// enforced at generation time, never committed diverged.
type ScaleBenchRow struct {
	// Mode is "serial" or "pipeline".
	Mode string `json:"mode"`
	// Workers is the pipeline worker count (1 on the serial row).
	Workers int `json:"workers"`
	// Sources and Packets count the keyed stream folded.
	Sources int `json:"sources"`
	Packets int `json:"packets"`
	// GOMAXPROCS and NumCPU are recorded per row at measurement time —
	// the row's scaling claim is only meaningful relative to them.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// NsPerPacket is mean observe wall time per packet over the measured
	// region (generation, hashing and the warmup batch are outside it).
	NsPerPacket float64 `json:"ns_per_packet"`
	// BytesPerPacket and AllocsPerPacket are heap allocation per packet
	// over the same region (runtime.MemStats deltas bracketing only the
	// observe calls) — the zero-copy path's load-bearing columns.
	BytesPerPacket  float64 `json:"bytes_per_packet"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	// VerdictHash digests every per-packet Result in stream order plus
	// the final verdict, from an untimed full pass.
	VerdictHash string `json:"verdict_hash"`
	// MarksVerified and Stops are verdict-visible counters; identical on
	// every row.
	MarksVerified uint64 `json:"marks_verified"`
	Stops         uint64 `json:"stops"`
}

// ScaleBenchResult is the committed BENCH_scale.json document.
type ScaleBenchResult struct {
	Env    BenchEnv         `json:"env"`
	Config ScaleBenchConfig `json:"config"`
	Rows   []ScaleBenchRow  `json:"rows"`
}

// scaleSink adapts one sink configuration (serial or pipeline) to the
// row runner. observe folds a batch and returns Results valid until
// the next observe call.
type scaleSink struct {
	observe func(batch []packet.Message) []sink.Result
	packets func() int
	verdict func() sink.Verdict
	close   func()
}

// ScaleBench measures every configuration over the identical keyed
// stream. Each row runs two passes: an untimed hashing pass pinning the
// verdict (checked against serial before anything is returned), then a
// fresh-sink measured pass bracketed by MemStats reads so the committed
// B/op and allocs/op columns cover exactly the observe region.
func ScaleBench(cfg ScaleBenchConfig) (*ScaleBenchResult, error) {
	if cfg.BatchLen < 1 || cfg.Sources < 2*cfg.BatchLen || len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("experiment: batch_len, workers and sources >= 2*batch_len must be set")
	}
	topo, err := geometricOfSize(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	keys := mac.NewKeyStore([]byte("scale-bench"))
	gen, err := newKeyedGen(cfg.Nodes, cfg.Hosts, cfg.Seed, topo, keys)
	if err != nil {
		return nil, err
	}

	res := &ScaleBenchResult{Env: CaptureBenchEnv(true), Config: cfg}
	serial, err := runScaleRow(cfg, gen, "serial", 1, func(reg *obs.Registry) scaleSink {
		return newScaleSerial(gen, topo, keys, reg, cfg.BatchLen)
	})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, serial)

	for _, w := range cfg.Workers {
		w := w
		row, err := runScaleRow(cfg, gen, "pipeline", w, func(reg *obs.Registry) scaleSink {
			return newScalePipeline(gen, topo, keys, reg, w)
		})
		if err != nil {
			return nil, err
		}
		if err := checkScaleRow(row, serial); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// checkScaleRow enforces the determinism contract at generation time.
func checkScaleRow(row, serial ScaleBenchRow) error {
	if row.VerdictHash != serial.VerdictHash {
		return fmt.Errorf("experiment: %s workers=%d verdict hash %s diverged from serial %s",
			row.Mode, row.Workers, row.VerdictHash, serial.VerdictHash)
	}
	if row.MarksVerified != serial.MarksVerified || row.Stops != serial.Stops {
		return fmt.Errorf("experiment: %s workers=%d verdict-visible counters (%d, %d) diverged from serial (%d, %d)",
			row.Mode, row.Workers, row.MarksVerified, row.Stops, serial.MarksVerified, serial.Stops)
	}
	return nil
}

func newScaleSerial(gen *keyedGen, topo *topology.Network, keys *mac.KeyStore, reg *obs.Registry, batchLen int) scaleSink {
	v, err := sink.NewVerifier(gen.scheme, keys, topo.NumNodes(), sink.NewTopologyResolver(keys, topo))
	if err != nil {
		panic(err)
	}
	if ins, ok := v.(sink.Instrumentable); ok {
		ins.Instrument(reg)
	}
	tracker := sink.NewTracker(v, topo)
	tracker.Instrument(reg)
	resBuf := make([]sink.Result, 0, batchLen)
	return scaleSink{
		observe: func(batch []packet.Message) []sink.Result {
			// One reset per batch, then verify and fold per packet: the
			// caller reads the whole batch's Results together, which a
			// per-packet Observe would recycle under it.
			resBuf = resBuf[:0]
			tracker.ResetVerifyScratch()
			for _, m := range batch {
				res := sink.VerifyAtEpoch(v, m, 0)
				tracker.Fold(res)
				resBuf = append(resBuf, res)
			}
			return resBuf
		},
		packets: tracker.Packets,
		verdict: tracker.Verdict,
		close:   func() {},
	}
}

func newScalePipeline(gen *keyedGen, topo *topology.Network, keys *mac.KeyStore, reg *obs.Registry, workers int) scaleSink {
	factory := keyedVerifierFactory(gen.scheme, keys, topo, reg)
	tracker := sink.NewTracker(factory(), topo)
	tracker.Instrument(reg)
	pipe := sink.NewPipeline(workers, factory, tracker)
	pipe.Instrument(reg)
	return scaleSink{
		observe: func(batch []packet.Message) []sink.Result { return pipe.Observe(batch, nil) },
		packets: tracker.Packets,
		verdict: tracker.Verdict,
		close:   func() { pipe.Close() },
	}
}

// runScaleRow measures one configuration: pass 1 hashes every Result and
// the verdict over the full stream (untimed); pass 2 rebuilds the sink
// from scratch and times the observe region with MemStats brackets, the
// first batch excluded as warmup (schedule caches, arenas and pipeline
// scratch fill there).
func runScaleRow(cfg ScaleBenchConfig, gen *keyedGen, mode string, workers int, mk func(reg *obs.Registry) scaleSink) (ScaleBenchRow, error) {
	buf := make([]packet.Message, cfg.BatchLen)

	// Pass 1: verdict hash and verdict-visible counters.
	reg := obs.New()
	s := mk(reg)
	digest := sha256.New()
	gen.reset()
	for fed := 0; fed < cfg.Sources; {
		n := min(cfg.BatchLen, cfg.Sources-fed)
		batch := buf[:n]
		gen.batch(batch)
		hashResults(digest, s.observe(batch))
		fed += n
	}
	if got := s.packets(); got != cfg.Sources {
		return ScaleBenchRow{}, fmt.Errorf("experiment: %s workers=%d folded %d of %d packets",
			mode, workers, got, cfg.Sources)
	}
	row := ScaleBenchRow{
		Mode: mode, Workers: workers,
		Sources: cfg.Sources, Packets: s.packets(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		VerdictHash:   finishHash(digest, s.verdict()),
		MarksVerified: reg.Counter("sink.verify.marks_verified").Value(),
		Stops:         reg.Counter("sink.verify.stops").Value(),
	}
	s.close()

	// Pass 2: fresh sink, measured. The MemStats brackets sit outside the
	// timer, so their stop-the-world reads never inflate NsPerPacket, and
	// generation/hashing never show up in the allocation columns.
	s2 := mk(obs.New())
	gen.reset()
	var spent time.Duration
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	measured := 0
	warmed := false
	for fed := 0; fed < cfg.Sources; {
		n := min(cfg.BatchLen, cfg.Sources-fed)
		batch := buf[:n]
		gen.batch(batch)
		if !warmed {
			s2.observe(batch)
			warmed = true
		} else {
			runtime.ReadMemStats(&m0)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			start := time.Now()
			s2.observe(batch)
			//pnmlint:allow wallclock macro-benchmark reports real fold latency
			spent += time.Since(start)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
			measured += n
		}
		fed += n
	}
	s2.close()
	row.NsPerPacket = float64(spent.Nanoseconds()) / float64(measured)
	row.BytesPerPacket = float64(bytes) / float64(measured)
	row.AllocsPerPacket = float64(mallocs) / float64(measured)
	return row, nil
}

// keyedGen deterministically generates the keyed-source stream in
// batches: source i hosts on the (i mod Hosts)-th deepest node and emits
// one packet with a stream-unique Event, marked along the host's real
// forwarding path. reset rewinds to source 0 with the marking RNG
// reseeded, so every configuration folds a byte-identical stream.
type keyedGen struct {
	scheme marking.PNM
	keys   *mac.KeyStore
	hasher *mac.Hasher
	macBuf []byte
	seed   int64
	hosts  []packet.NodeID
	paths  [][]packet.NodeID
	rng    *rand.Rand
	next   int
}

func newKeyedGen(nodes, hosts int, seed int64, topo *topology.Network, keys *mac.KeyStore) (*keyedGen, error) {
	all := topo.Nodes()
	byDepth := make([]packet.NodeID, len(all))
	copy(byDepth, all)
	sort.SliceStable(byDepth, func(i, j int) bool {
		return topo.Depth(byDepth[i]) > topo.Depth(byDepth[j])
	})
	if hosts < 1 || len(byDepth) < hosts {
		return nil, fmt.Errorf("experiment: %d nodes cannot host %d keyed-source hosts", len(byDepth), hosts)
	}
	hostIDs := byDepth[:hosts]
	maxHops := topo.Depth(hostIDs[0]) - 1
	if maxHops < 1 {
		return nil, fmt.Errorf("experiment: degenerate topology at size %d", nodes)
	}
	paths := make([][]packet.NodeID, len(hostIDs))
	for i, h := range hostIDs {
		paths[i] = topo.Forwarders(h)
	}
	return &keyedGen{
		scheme: marking.PNM{P: analytic.ProbabilityForMarks(maxHops, 3)},
		keys:   keys,
		hasher: keys.Hasher(),
		seed:   seed,
		hosts:  hostIDs,
		paths:  paths,
	}, nil
}

func (g *keyedGen) reset() {
	g.rng = rand.New(rand.NewSource(g.seed))
	g.next = 0
}

// batch fills buf with the next len(buf) packets of the stream,
// overwriting buf in place: each slot's mark storage is reused, so
// steady-state generation allocates nothing and the messages of the
// previous batch are invalidated. Marking runs on cached key schedules
// through MarkSched, which is byte-identical to Scheme.Mark.
func (g *keyedGen) batch(buf []packet.Message) {
	for k := range buf {
		i := g.next
		g.next++
		h := i % len(g.hosts)
		m := &buf[k]
		m.Report = packet.Report{
			Event: uint32(i + 1), Location: uint32(g.hosts[h]), Seq: 1,
		}
		m.Marks = m.Marks[:0]
		for _, hop := range g.paths[h] {
			g.macBuf = g.scheme.MarkSched(g.hasher.Schedule(hop), g.macBuf, m, hop, g.rng)
		}
	}
}

// keyedVerifierFactory builds one verifier for the keyed workload: the
// topology resolver (the exhaustive resolver's O(n)-per-report table
// build is infeasible at 100k distinct reports), instrumented into the
// shared registry. Safe to call from the pipeline's worker goroutines:
// the registry is concurrent and each verifier is factory-owned.
func keyedVerifierFactory(scheme marking.Scheme, keys *mac.KeyStore, topo *topology.Network, reg *obs.Registry) func() sink.Verifier {
	return func() sink.Verifier {
		v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), sink.NewTopologyResolver(keys, topo))
		if err != nil {
			panic(err)
		}
		if ins, ok := v.(sink.Instrumentable); ok {
			ins.Instrument(reg)
		}
		return v
	}
}

// hashResults streams a batch of Results into the row digest, in stream
// order, in resultHash's format.
func hashResults(h hash.Hash, results []sink.Result) {
	for _, res := range results {
		fmt.Fprintf(h, "%v|%v;", res.Stopped, res.Chain)
	}
}

func finishHash(h hash.Hash, verdict sink.Verdict) string {
	fmt.Fprintf(h, "verdict:%+v", verdict)
	return hex.EncodeToString(h.Sum(nil))
}

// verdictDigest hashes a verdict alone (no per-packet results).
func verdictDigest(v sink.Verdict) string {
	h := sha256.New()
	fmt.Fprintf(h, "verdict:%+v", v)
	return hex.EncodeToString(h.Sum(nil))
}

// RenderScaleBench serializes the result as the committed JSON document.
func RenderScaleBench(res *ScaleBenchResult) (string, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
