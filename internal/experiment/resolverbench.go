package experiment

import (
	"encoding/json"
	"fmt"
	"math/rand"
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

// ResolverBenchConfig parameterizes the interleaved-multisource resolver
// macro-benchmark. The workload models the regime the LRU table cache
// exists for: several sources report concurrently, each source's report
// is retransmitted several times, and deliveries interleave at the sink —
// so consecutive packets almost always carry different reports, and a
// single-entry cache rebuilds the anonymous-ID table on nearly every
// packet.
type ResolverBenchConfig struct {
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// Sources is how many concurrently reporting sources interleave.
	Sources int `json:"sources"`
	// Reports is how many distinct reports each source emits.
	Reports int `json:"reports"`
	// Repeats is how many times each report's packet is retransmitted.
	Repeats int `json:"repeats"`
	// Seed drives topology and marking.
	Seed int64 `json:"seed"`
	// CacheCapacity is the LRU row's table-cache capacity.
	CacheCapacity int `json:"cache_capacity"`
}

// DefaultResolverBench sizes the workload so the LRU covers the live
// report working set (Sources distinct reports at a time) while the
// single-entry baseline thrashes.
func DefaultResolverBench() ResolverBenchConfig {
	return ResolverBenchConfig{
		Nodes:         1024,
		Sources:       8,
		Reports:       4,
		Repeats:       8,
		Seed:          9,
		CacheCapacity: sink.DefaultTableCacheSize,
	}
}

// ResolverBenchRow is one resolver variant's measurement over the shared
// packet stream. Counter fields come from the obs registry the run was
// instrumented with.
type ResolverBenchRow struct {
	// Resolver names the variant: exhaustive-single, exhaustive-lru, or
	// topology.
	Resolver string `json:"resolver"`
	// CacheCapacity is the table-cache capacity (exhaustive rows only).
	CacheCapacity int `json:"cache_capacity,omitempty"`
	// Packets is the stream length.
	Packets int `json:"packets"`
	// NsPerPacket is mean verification wall time per packet.
	NsPerPacket float64 `json:"ns_per_packet"`
	// TableBuilds, CacheHits, CacheMisses and CacheHitRate describe the
	// exhaustive resolver's table cache.
	TableBuilds  uint64  `json:"table_builds"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Probes is the topology resolver's AnonID HMAC count.
	Probes uint64 `json:"probes"`
	// MACCandidatesPerMark is the mean candidate MACs checked per anonymous
	// mark.
	MACCandidatesPerMark float64 `json:"mac_candidates_per_mark"`
	// MarksVerified and Stops summarize verification outcomes; every row
	// must agree on both (the resolvers are equivalent).
	MarksVerified uint64 `json:"marks_verified"`
	Stops         uint64 `json:"stops"`
}

// ResolverBenchResult is the committed BENCH_resolver.json document.
type ResolverBenchResult struct {
	Env    BenchEnv            `json:"env"`
	Config ResolverBenchConfig `json:"config"`
	Rows   []ResolverBenchRow  `json:"rows"`
}

// ResolverBench builds the interleaved stream once and replays it through
// each resolver variant.
//
// Like ResolveComparison this stays serial: the output is wall-clock time
// per packet.
func ResolverBench(cfg ResolverBenchConfig) (*ResolverBenchResult, error) {
	if cfg.Sources < 1 || cfg.Reports < 1 || cfg.Repeats < 1 {
		return nil, fmt.Errorf("experiment: sources, reports and repeats must be positive")
	}
	topo, err := geometricOfSize(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	keys := mac.NewKeyStore([]byte("resolver-bench"))
	stream, scheme, err := interleavedStream(cfg, topo, keys)
	if err != nil {
		return nil, err
	}

	res := &ResolverBenchResult{Env: CaptureBenchEnv(false), Config: cfg}
	variants := []struct {
		name     string
		capacity int
		resolver func() sink.Resolver
	}{
		{"exhaustive-single", 1, func() sink.Resolver {
			return sink.NewExhaustiveResolverCache(keys, topo.Nodes(), 1)
		}},
		{"exhaustive-lru", cfg.CacheCapacity, func() sink.Resolver {
			return sink.NewExhaustiveResolverCache(keys, topo.Nodes(), cfg.CacheCapacity)
		}},
		{"topology", 0, func() sink.Resolver {
			return sink.NewTopologyResolver(keys, topo)
		}},
	}
	for _, vr := range variants {
		row, err := runResolverBenchRow(vr.name, vr.capacity, scheme, keys, topo, vr.resolver(), stream)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// interleavedStream pre-marks every (source, report) packet and interleaves
// retransmissions round-robin across sources, the delivery order a sink
// sees under concurrent reporting.
func interleavedStream(cfg ResolverBenchConfig, topo *topology.Network, keys *mac.KeyStore) ([]packet.Message, marking.Scheme, error) {
	// The deepest cfg.Sources nodes report; depth spread keeps the
	// topology resolver's searches non-trivial. Sort is stable over the
	// deterministic Nodes() order.
	nodes := topo.Nodes()
	byDepth := make([]packet.NodeID, len(nodes))
	copy(byDepth, nodes)
	sort.SliceStable(byDepth, func(i, j int) bool {
		return topo.Depth(byDepth[i]) > topo.Depth(byDepth[j])
	})
	if len(byDepth) < cfg.Sources {
		return nil, nil, fmt.Errorf("experiment: %d nodes cannot host %d sources", len(byDepth), cfg.Sources)
	}
	sources := byDepth[:cfg.Sources]
	maxHops := topo.Depth(sources[0]) - 1
	if maxHops < 1 {
		return nil, nil, fmt.Errorf("experiment: degenerate topology at size %d", cfg.Nodes)
	}
	scheme := marking.PNM{P: analytic.ProbabilityForMarks(maxHops, 3)}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// msgs[s][r] is source s's packet for its r-th report.
	msgs := make([][]packet.Message, len(sources))
	for si, src := range sources {
		msgs[si] = make([]packet.Message, cfg.Reports)
		for r := 0; r < cfg.Reports; r++ {
			msg := packet.Message{Report: packet.Report{
				Event: uint32(src), Location: uint32(si), Seq: uint32(r + 1),
			}}
			for _, hop := range topo.Forwarders(src) {
				msg = scheme.Mark(hop, keys.Key(hop), msg, rng)
			}
			msgs[si][r] = msg
		}
	}

	// Round-robin across sources: within one repeat sweep every source
	// delivers once, so consecutive packets carry different reports and a
	// capacity-1 table cache misses on each one, while any cache holding
	// the cfg.Sources live reports hits after the first sweep.
	var stream []packet.Message
	for r := 0; r < cfg.Reports; r++ {
		for rep := 0; rep < cfg.Repeats; rep++ {
			for si := range sources {
				stream = append(stream, msgs[si][r])
			}
		}
	}
	return stream, scheme, nil
}

// runResolverBenchRow verifies the stream under one resolver, timed and
// instrumented.
func runResolverBenchRow(name string, capacity int, scheme marking.Scheme, keys *mac.KeyStore, topo *topology.Network, r sink.Resolver, stream []packet.Message) (ResolverBenchRow, error) {
	v, err := sink.NewVerifier(scheme, keys, topo.NumNodes(), r)
	if err != nil {
		return ResolverBenchRow{}, err
	}
	reg := obs.New()
	if ins, ok := v.(sink.Instrumentable); ok {
		ins.Instrument(reg)
	}
	//pnmlint:allow wallclock macro-benchmark reports real verification latency
	start := time.Now()
	for _, m := range stream {
		v.Verify(m)
	}
	//pnmlint:allow wallclock macro-benchmark reports real verification latency
	elapsed := time.Since(start)

	hits := reg.Counter("sink.resolver.cache_hits").Value()
	misses := reg.Counter("sink.resolver.cache_misses").Value()
	row := ResolverBenchRow{
		Resolver:             name,
		CacheCapacity:        capacity,
		Packets:              len(stream),
		NsPerPacket:          float64(elapsed.Nanoseconds()) / float64(len(stream)),
		TableBuilds:          reg.Counter("sink.resolver.table_builds").Value(),
		CacheHits:            hits,
		CacheMisses:          misses,
		Probes:               reg.Counter("sink.resolver.probes").Value(),
		MACCandidatesPerMark: reg.Histogram("sink.verify.mac_candidates_per_mark").Mean(),
		MarksVerified:        reg.Counter("sink.verify.marks_verified").Value(),
		Stops:                reg.Counter("sink.verify.stops").Value(),
	}
	if hits+misses > 0 {
		row.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return row, nil
}

// RenderResolverBench serializes the result as the committed JSON
// document.
func RenderResolverBench(res *ResolverBenchResult) (string, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
