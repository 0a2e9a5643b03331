package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/obs"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
)

// SinkBenchConfig parameterizes the MAC-engine and sink-pipeline
// benchmark committed as BENCH_sink.json. The macro rows replay the same
// interleaved multi-source stream the resolver benchmark uses, so the
// serial exhaustive-single row is directly comparable against
// BENCH_resolver.json's.
type SinkBenchConfig struct {
	// Stream shapes the shared packet workload (see ResolverBenchConfig).
	Stream ResolverBenchConfig `json:"stream"`
	// Workers lists the pipeline widths to measure alongside serial.
	Workers []int `json:"workers"`
	// BatchLen is the pipeline batch size, mimicking the netsim sink
	// loop's queue-bounded drain.
	BatchLen int `json:"batch_len"`
	// MacIters sizes the mac micro-benchmark loops.
	MacIters int `json:"mac_iters"`
}

// DefaultSinkBench is the committed configuration.
func DefaultSinkBench() SinkBenchConfig {
	return SinkBenchConfig{
		Stream:   DefaultResolverBench(),
		Workers:  []int{1, 2, 4, 8},
		BatchLen: 64,
		MacIters: 4096,
	}
}

// MacBenchResult is the per-call MAC engine micro-benchmark: cold
// (per-call HMAC pad absorption, as node-side marking does it) against
// the sink's precomputed key schedule.
type MacBenchResult struct {
	Iters int `json:"iters"`
	// Sum rows measure the 80-byte nested-MAC input shape.
	ColdSumNs      float64 `json:"cold_sum_ns_per_op"`
	SchedSumNs     float64 `json:"sched_sum_ns_per_op"`
	ColdSumAllocs  float64 `json:"cold_sum_allocs_per_op"`
	SchedSumAllocs float64 `json:"sched_sum_allocs_per_op"`
	SumSpeedup     float64 `json:"sum_speedup"`
	// Anon rows measure anonymous-ID derivation, the resolver table's
	// inner loop.
	ColdAnonNs      float64 `json:"cold_anon_ns_per_op"`
	SchedAnonNs     float64 `json:"sched_anon_ns_per_op"`
	ColdAnonAllocs  float64 `json:"cold_anon_allocs_per_op"`
	SchedAnonAllocs float64 `json:"sched_anon_allocs_per_op"`
	AnonSpeedup     float64 `json:"anon_speedup"`
}

// TableBenchResult measures the ExhaustiveResolver table-build hot loop —
// one anonymous ID per node — cold against a warm schedule cache.
type TableBenchResult struct {
	Nodes  int `json:"nodes"`
	Builds int `json:"builds"`
	// ColdNsPerBuild derives every ID through per-call HMAC; this is the
	// pre-schedule table-build cost BENCH_resolver.json was measured at.
	ColdNsPerBuild float64 `json:"cold_ns_per_build"`
	// WarmNsPerBuild derives them through a warm Hasher.
	WarmNsPerBuild float64 `json:"warm_ns_per_build"`
	Speedup        float64 `json:"speedup"`
}

// SinkBenchRow is one sink-configuration measurement over the shared
// stream: the serial tracker or the pipeline at one worker count, each
// timed on a cold first pass (schedules and tables built on the fly) and
// a warm second pass over the same stream.
type SinkBenchRow struct {
	// Mode is "serial" or "pipeline".
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	Packets int    `json:"packets"`
	// ColdNsPerPacket and WarmNsPerPacket are mean wall time per packet
	// for the first and second pass.
	ColdNsPerPacket float64 `json:"cold_ns_per_packet"`
	WarmNsPerPacket float64 `json:"warm_ns_per_packet"`
	// VerdictHash digests the cold pass's per-packet Results and the
	// verdict folded from them; every row must agree (the determinism
	// contract), and the warm pass is checked against it internally.
	VerdictHash string `json:"verdict_hash"`
	// Cache-locality counters, summed over both passes. These
	// legitimately vary with the worker count.
	TableBuilds    uint64 `json:"table_builds"`
	ScheduleHits   uint64 `json:"schedule_hits"`
	ScheduleMisses uint64 `json:"schedule_misses"`
	// Verdict-visible counters, summed over both passes; identical on
	// every row.
	MarksVerified uint64 `json:"marks_verified"`
	Stops         uint64 `json:"stops"`
}

// SinkBenchResult is the committed BENCH_sink.json document.
type SinkBenchResult struct {
	Env    BenchEnv         `json:"env"`
	Config SinkBenchConfig  `json:"config"`
	Mac    MacBenchResult   `json:"mac"`
	Table  TableBenchResult `json:"table_build"`
	Rows   []SinkBenchRow   `json:"rows"`
}

// SinkBench runs the micro- and macro-benchmarks. Like ResolverBench the
// macro rows report real wall time; the pipeline rows are the only
// concurrency.
func SinkBench(cfg SinkBenchConfig) (*SinkBenchResult, error) {
	if cfg.MacIters < 1 || cfg.BatchLen < 1 || len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("experiment: mac_iters, batch_len and workers must be set")
	}
	topo, err := geometricOfSize(cfg.Stream.Nodes, cfg.Stream.Seed)
	if err != nil {
		return nil, err
	}
	keys := mac.NewKeyStore([]byte("resolver-bench"))
	stream, scheme, err := interleavedStream(cfg.Stream, topo, keys)
	if err != nil {
		return nil, err
	}

	res := &SinkBenchResult{Env: CaptureBenchEnv(false), Config: cfg}
	res.Mac = macBench(keys, cfg.MacIters)
	res.Table = tableBench(keys, topo, cfg.MacIters/max(topo.NumNodes(), 1)+1)

	serial, err := runSinkBenchSerial(scheme, keys, topo, stream)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, serial)
	for _, w := range cfg.Workers {
		row, err := runSinkBenchPipeline(scheme, keys, topo, stream, w, cfg.BatchLen)
		if err != nil {
			return nil, err
		}
		if row.VerdictHash != serial.VerdictHash {
			return nil, fmt.Errorf("experiment: pipeline workers=%d verdict hash %s diverged from serial %s",
				w, row.VerdictHash, serial.VerdictHash)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// macBench times the per-call HMAC path against the precomputed schedule
// on both MAC shapes the sink computes.
func macBench(keys *mac.KeyStore, iters int) MacBenchResult {
	const id = packet.NodeID(7)
	k := keys.Key(id)
	sched := mac.NewSchedule(k)
	data := make([]byte, 80)
	for i := range data {
		data[i] = byte(i)
	}
	report := packet.Report{Event: 0xBEEF, Location: 3, Seq: 9}

	timeOp := func(op func()) float64 {
		//pnmlint:allow wallclock micro-benchmark reports real per-op latency
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		//pnmlint:allow wallclock micro-benchmark reports real per-op latency
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	r := MacBenchResult{
		Iters:           iters,
		ColdSumNs:       timeOp(func() { mac.Sum(k, data) }),
		SchedSumNs:      timeOp(func() { sched.Sum(data, nil) }),
		ColdSumAllocs:   testing.AllocsPerRun(iters, func() { mac.Sum(k, data) }),
		SchedSumAllocs:  testing.AllocsPerRun(iters, func() { sched.Sum(data, nil) }),
		ColdAnonNs:      timeOp(func() { mac.AnonID(k, report, id) }),
		SchedAnonNs:     timeOp(func() { sched.AnonID(report, id) }),
		ColdAnonAllocs:  testing.AllocsPerRun(iters, func() { mac.AnonID(k, report, id) }),
		SchedAnonAllocs: testing.AllocsPerRun(iters, func() { sched.AnonID(report, id) }),
	}
	if r.SchedSumNs > 0 {
		r.SumSpeedup = r.ColdSumNs / r.SchedSumNs
	}
	if r.SchedAnonNs > 0 {
		r.AnonSpeedup = r.ColdAnonNs / r.SchedAnonNs
	}
	return r
}

// tableBench times one full anonymous-ID table build — the
// ExhaustiveResolver's per-report cost over every node — cold versus
// through a warm schedule cache.
func tableBench(keys *mac.KeyStore, topo *topology.Network, builds int) TableBenchResult {
	nodes := topo.Nodes()
	report := packet.Report{Event: 0xC0DE, Location: 1, Seq: 1}
	hasher := keys.Hasher()
	for _, id := range nodes {
		hasher.Schedule(id) // warm the cache outside the timed region
	}

	timeBuilds := func(build func()) float64 {
		//pnmlint:allow wallclock macro-benchmark reports real table-build latency
		start := time.Now()
		for i := 0; i < builds; i++ {
			build()
		}
		//pnmlint:allow wallclock macro-benchmark reports real table-build latency
		return float64(time.Since(start).Nanoseconds()) / float64(builds)
	}
	cold := timeBuilds(func() {
		for _, id := range nodes {
			mac.AnonID(keys.Key(id), report, id)
		}
	})
	warm := timeBuilds(func() {
		for _, id := range nodes {
			hasher.AnonID(id, report)
		}
	})
	r := TableBenchResult{Nodes: len(nodes), Builds: builds, ColdNsPerBuild: cold, WarmNsPerBuild: warm}
	if warm > 0 {
		r.Speedup = cold / warm
	}
	return r
}

// resultHash digests a pass's per-packet Results and the verdict folded
// from them.
func resultHash(results []sink.Result, verdict sink.Verdict) string {
	h := sha256.New()
	for _, res := range results {
		fmt.Fprintf(h, "%v|%v;", res.Stopped, res.Chain)
	}
	fmt.Fprintf(h, "verdict:%+v", verdict)
	return hex.EncodeToString(h.Sum(nil))
}

// observeFn abstracts one sink configuration for timing: it verifies and
// folds the whole stream, appending a copy of every Result to out.
type observeFn func(stream []packet.Message, out []sink.Result) []sink.Result

// runSinkBenchPasses times a cold and a warm pass of observe over the
// stream and assembles the row. The cold pass's results and verdict feed
// the row's hash; the warm pass re-derives the per-packet results (they
// are pure) and must hash identically.
func runSinkBenchPasses(mode string, workers int, stream []packet.Message, reg *obs.Registry, tracker *sink.Tracker, observe observeFn) (SinkBenchRow, error) {
	results := make([]sink.Result, 0, len(stream))

	//pnmlint:allow wallclock macro-benchmark reports real verification latency
	start := time.Now()
	results = observe(stream, results)
	//pnmlint:allow wallclock macro-benchmark reports real verification latency
	cold := time.Since(start)
	coldResults := resultHash(results, sink.Verdict{})
	hash := resultHash(results, tracker.Verdict())

	results = results[:0]
	//pnmlint:allow wallclock macro-benchmark reports real verification latency
	start = time.Now()
	results = observe(stream, results)
	//pnmlint:allow wallclock macro-benchmark reports real verification latency
	warm := time.Since(start)
	if got := resultHash(results, sink.Verdict{}); got != coldResults {
		return SinkBenchRow{}, fmt.Errorf("experiment: %s warm pass results diverged from cold pass", mode)
	}

	return SinkBenchRow{
		Mode:            mode,
		Workers:         workers,
		Packets:         len(stream),
		ColdNsPerPacket: float64(cold.Nanoseconds()) / float64(len(stream)),
		WarmNsPerPacket: float64(warm.Nanoseconds()) / float64(len(stream)),
		VerdictHash:     hash,
		TableBuilds:     reg.Counter("sink.resolver.table_builds").Value(),
		ScheduleHits:    reg.Counter("mac.schedule.hits").Value(),
		ScheduleMisses:  reg.Counter("mac.schedule.misses").Value(),
		MarksVerified:   reg.Counter("sink.verify.marks_verified").Value(),
		Stops:           reg.Counter("sink.verify.stops").Value(),
	}, nil
}

// runSinkBenchSerial measures the serial tracker: a cold pass building
// schedules and tables on the fly, then a warm pass over the same
// verifier chain (fresh tracker, warm caches).
func runSinkBenchSerial(scheme marking.Scheme, keys *mac.KeyStore, topo *topology.Network, stream []packet.Message) (SinkBenchRow, error) {
	v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(),
		sink.NewExhaustiveResolverCache(keys, topo.Nodes(), 1))
	if err != nil {
		return SinkBenchRow{}, err
	}
	reg := obs.New()
	if ins, ok := v.(sink.Instrumentable); ok {
		ins.Instrument(reg)
	}
	tracker := sink.NewTracker(v, topo)
	observe := func(stream []packet.Message, out []sink.Result) []sink.Result {
		for _, m := range stream {
			res := tracker.Observe(m)
			out = append(out, sink.Result{Stopped: res.Stopped, Chain: append([]packet.NodeID(nil), res.Chain...)})
		}
		return out
	}
	return runSinkBenchPasses("serial", 1, stream, reg, tracker, observe)
}

// runSinkBenchPipeline measures the pipeline at one worker count, batched
// the way the netsim sink loop batches.
func runSinkBenchPipeline(scheme marking.Scheme, keys *mac.KeyStore, topo *topology.Network, stream []packet.Message, workers, batchLen int) (SinkBenchRow, error) {
	reg := obs.New()
	factory := func() sink.Verifier {
		v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(),
			sink.NewExhaustiveResolverCache(keys, topo.Nodes(), 1))
		if err != nil {
			panic(err)
		}
		if ins, ok := v.(sink.Instrumentable); ok {
			ins.Instrument(reg)
		}
		return v
	}
	serialV, err := sink.NewVerifier(scheme, keys, topo.NumNodes(),
		sink.NewExhaustiveResolverCache(keys, topo.Nodes(), 1))
	if err != nil {
		return SinkBenchRow{}, err
	}
	tracker := sink.NewTracker(serialV, topo)
	pipe := sink.NewPipeline(workers, factory, tracker)
	defer pipe.Close()
	pipe.Instrument(reg)
	observe := func(stream []packet.Message, out []sink.Result) []sink.Result {
		for lo := 0; lo < len(stream); lo += batchLen {
			hi := min(lo+batchLen, len(stream))
			for _, res := range pipe.Observe(stream[lo:hi], nil) {
				out = append(out, sink.Result{Stopped: res.Stopped, Chain: append([]packet.NodeID(nil), res.Chain...)})
			}
		}
		return out
	}
	return runSinkBenchPasses("pipeline", workers, stream, reg, tracker, observe)
}

// RenderSinkBench serializes the result as the committed JSON document.
func RenderSinkBench(res *SinkBenchResult) (string, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
