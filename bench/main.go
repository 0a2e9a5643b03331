// Command bench is the repository benchmark. It drives the PNM sink the
// way pnmserve runs it — transport.Listen on loopback with the default
// config and obs bound, one TCP connection fed pre-encoded frames —
// through a closed-loop saturation phase and a fixed-rate open-loop
// phase, checks both verdicts against an in-process replay of the same
// stream, and prints every metric by name with its unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload keyed-2k --seed 1 --seconds 12 --trace 0
//
// --trace 1 also replays the stream in process with a span around every
// call into each layer, writes the spans of every 16th packet to --spans
// as JSON lines, and reports the per-layer metrics instead of the
// end-to-end ones. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"pnm/internal/loadgen"
	"pnm/internal/packet"
)

const (
	// setupSamples is how many cold sink start-ups setup_s is the median
	// of; the last two serve the saturation and open-loop phases.
	setupSamples = 5
	// spanEvery keeps the spans of one packet in this many.
	spanEvery = 16
	// maxLagMs is the open-loop generator's validity limit: a sender
	// whose median frame goes out later than this no longer offers the
	// workload's rate. The limit is on the median, not the tail: a shared
	// VM stalls now and then for over 10 ms, which lifts the tail of a
	// sender that keeps its schedule.
	maxLagMs = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, measures one workload and prints the result. It
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the topology, the keys and the marking RNG")
	seconds := fs.Float64("seconds", 12, "run length; the open-loop phase sends for half of it")
	trace := fs.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	spans := fs.String("spans", "", "span file for --trace 1 (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: want --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	opts := options{seconds: *seconds, trace: *trace == 1, spans: *spans, log: stdout}
	if opts.trace && opts.spans == "" {
		opts.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	out, err := measure(w, *seed, opts)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := out.print(stdout, opts.trace); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !out.correct {
		return 1
	}
	return 0
}

// options configures one measurement.
type options struct {
	seconds float64
	trace   bool
	spans   string    // span file; used with trace
	log     io.Writer // human-readable progress and details
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's verdict on correctness plus its metrics.
type outcome struct {
	correct   bool
	failures  []string
	attempted int
	failed    int
	endToEnd  map[string]metric
	perLayer  map[string]metric
}

// print writes every metric as "name value unit", then the JSON result
// line with the end-to-end metrics, or with the per-layer ones when
// traced.
func (o *outcome) print(w io.Writer, traced bool) error {
	all := make(map[string]metric, len(o.endToEnd)+len(o.perLayer))
	for _, ms := range []map[string]metric{o.endToEnd, o.perLayer} {
		for name, m := range ms {
			all[name] = m
		}
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %-42s %14.6g %s\n", name, all[name].Value, all[name].Unit)
	}
	for _, f := range o.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	metrics := o.endToEnd
	if traced {
		metrics = o.perLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// measure runs every phase of one workload and checks its outputs.
func measure(w workload, seed int64, opts options) (*outcome, error) {
	log := opts.log
	// The stream lasts half the run at the open-loop rate, warm-up
	// included; saturation takes about half as long again.
	total := int(math.Round(float64(w.rate) * opts.seconds / 2))
	s, err := newStream(w, seed, warmPackets, max(1, total-warmPackets))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "workload %s seed %d: %d frames (%d warm-up), %d bytes, GOMAXPROCS %d\n",
		w.name, seed, s.len(), s.warm, len(s.frames), runtime.GOMAXPROCS(0))
	fmt.Fprintf(log, "stream_sha256 %s\n", s.digest())

	// Each start-up is timed and scaled by the host reference read on
	// either side of it, like the saturation windows.
	var setups []float64
	start := func() (*liveSink, error) {
		ref0 := hostRefNs()
		t0 := time.Now()
		ls, err := startSink(w, seed, s)
		seconds := time.Since(t0).Seconds()
		setups = append(setups, seconds*refNominalNs*2/(ref0+hostRefNs()))
		return ls, err
	}
	for len(setups) < setupSamples-2 {
		ls, err := start()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ls.close()
	}

	heap0 := heapInUse()
	ls, err := start()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sat, err := saturate(ls, heap0)
	satReg := ls.reg
	satVerdict, satLedger := ls.finish()
	if err != nil {
		return nil, fmt.Errorf("saturation: %w", err)
	}

	ls, err = start()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	open, err := runOpenLoop(ls, w.rate)
	openVerdict, openLedger := ls.finish()
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}

	ref, err := replay(w, seed, s, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(log, loadgen.FormatVerdict(ref.verdict))
	fmt.Fprintf(log, "verdict_hash %s\n", ref.hash)

	out := &outcome{attempted: 2 * s.len()}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out.failures = append(out.failures, fmt.Sprintf(format, args...))
		}
	}
	for _, p := range []struct {
		phase string
		l     ledger
	}{{"saturation", satLedger}, {"open loop", openLedger}} {
		check(p.l.delivered == s.len(), "%s folded %d of %d frames", p.phase, p.l.delivered, s.len())
		check(p.l.rejected == 0, "%s: %d frames rejected by the decoder", p.phase, p.l.rejected)
		check(p.l.dropped == 0, "%s: %d frames dropped", p.phase, p.l.dropped)
		out.failed += s.len() - p.l.delivered + int(p.l.rejected+p.l.dropped)
	}
	check(reflect.DeepEqual(satVerdict, openVerdict), "saturation verdict %+v differs from open-loop verdict %+v", satVerdict, openVerdict)
	check(reflect.DeepEqual(satVerdict, ref.verdict), "end-to-end verdict %+v differs from in-process verdict %+v", satVerdict, ref.verdict)
	lagP50 := quantile(open.lagMs, 0.50)
	check(lagP50 <= maxLagMs, "open-loop sender ran %.2f ms late for the median frame (limit %d ms)", lagP50, maxLagMs)

	fmt.Fprintf(log, "samples: %d set-ups, %d saturation windows, %d open-loop latencies, %d verdict reads\n",
		len(setups), len(sat.pps), len(open.latencyMs), len(open.readUs))
	fmt.Fprintf(log, "saturation pps by window, as measured: %.0f\n", sat.rawPps)
	fmt.Fprintf(log, "host reference ns/hash around them: %.1f\n", sat.refNs)
	out.endToEnd = map[string]metric{
		"throughput_pps":    {quantile(sat.pps, 0.50), "1/s"},
		"latency_p50_ms":    {quantile(open.latencyMs, 0.50), "ms"},
		"cpu_us_per_packet": {quantile(sat.cpuUs, 0.50), "us"},
		"heap_retained_mb":  {sat.heapRetainedMB, "MB"},
		"setup_s":           {quantile(setups, 0.50), "s"},
	}
	inprocNs := float64(ref.elapsed.Nanoseconds()) / float64(s.len())
	out.perLayer = map[string]metric{
		"latency_p95_ms":                        {windowedQuantile(open.latencyMs, 0.95), "ms"},
		"latency_p99_ms":                        {windowedQuantile(open.latencyMs, 0.99), "ms"},
		"bench.host_ref_ns":                     {quantile(sat.refNs, 0.50), "ns"},
		"bench.gen.lag_p99_ms":                  {windowedQuantile(open.lagMs, 0.99), "ms"},
		"bench.inproc_ns_per_packet":            {inprocNs, "ns"},
		"transport.share":                       {1 - inprocNs*quantile(sat.rawPps, 0.50)/1e9, "frac"},
		"transport.ingest_latency_us_p50":       {histQuantile(open.ingestUs, 0.50), "us"},
		"transport.ingest_latency_us_p99":       {histQuantile(open.ingestUs, 0.99), "us"},
		"transport.batch_occupancy_mean":        {float64(sat.batchedFrames) / math.Max(1, float64(sat.batches)), "count"},
		"transport.queue_full_blocks":           {float64(sat.queueFullBlocks), "count"},
		"transport.verdict_read_p50_us":         {quantile(open.readUs, 0.50), "us"},
		"transport.verdict_read_p99_us":         {quantile(open.readUs, 0.99), "us"},
		"mac.schedule_misses":                   {float64(satReg.Counter("mac.schedule.misses").Value()), "count"},
		"runtime.alloc_bytes_per_packet":        {float64(ref.allocBytes) / float64(s.len()), "B"},
		"runtime.gc_cycles":                     {float64(ref.gcCycles), "count"},
		"sink.order.seen":                       {float64(ref.seen), "count"},
		"sink.verdict.packets_to_catch":         {float64(ref.caughtAt), "count"},
		"sink.verdict.final_precision":          {boolFrac(ref.verdict.SuspectsContain(s.sources...)), "frac"},
		"topology.epochs.count":                 {float64(ref.epochs), "count"},
		"topology.epochs.retained_kb_per_epoch": {float64(ref.retainedBytes) / 1024 / float64(ref.epochs), "kB"},
	}
	if opts.trace {
		t := newTracer(spanEvery)
		traced, err := replay(w, seed, s, t)
		if err != nil {
			return nil, err
		}
		check(traced.hash == ref.hash, "traced replay result hash %s differs from untraced %s", traced.hash, ref.hash)
		if err := t.writeSpans(opts.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "%d spans written to %s\n", len(t.spans), opts.spans)
		layers, err := layerMetrics(w, seed, s, ref, traced, t)
		if err != nil {
			return nil, err
		}
		for name, m := range layers {
			out.perLayer[name] = m
		}
	}
	out.correct = len(out.failures) == 0
	return out, nil
}

// layerMetrics derives the per-layer metrics of a traced replay, set
// against the untraced one.
func layerMetrics(w workload, seed int64, s *stream, ref, traced *replayResult, t *tracer) (map[string]metric, error) {
	anonNs, sumNs, err := macCosts(w, seed, s)
	if err != nil {
		return nil, err
	}
	n := float64(s.len())
	counter := func(name string) float64 { return float64(traced.reg.Counter(name).Value()) }
	marks := counter("sink.verify.marks_verified")
	perCall := func(l layer) float64 { return float64(t.total[l]) / math.Max(1, float64(t.calls[l])) }
	return map[string]metric{
		"transport.decode_ns_per_frame":       {perCall(layerDecode), "ns"},
		"sink.verify.ns_per_packet":           {float64(t.total[layerVerify]) / n, "ns"},
		"sink.verify.self_ns_per_packet":      {float64(t.self[layerVerify]) / n, "ns"},
		"sink.verify.candidate_ns_per_packet": {float64(t.total[layerCandidate]) / n, "ns"},
		"sink.verify.marks_per_packet":        {marks / n, "count"},
		"sink.verify.stops":                   {counter("sink.verify.stops"), "count"},
		"sink.resolver.bfs_probes_per_mark":   {counter("sink.resolver.probes") / marks, "count"},
		"sink.resolver.candidates_per_mark":   {counter("sink.resolver.candidates") / marks, "count"},
		"sink.resolver.ns_per_call":           {perCall(layerResolve), "ns"},
		"sink.resolver.ns_per_probe":          {float64(t.self[layerResolve]) / counter("sink.resolver.probes"), "ns"},
		"sink.resolver.self_share":            {float64(t.self[layerResolve]) / float64(t.total[layerPacket]), "frac"},
		"sink.order.fold_ns_per_packet":       {float64(t.total[layerFold]) / n, "ns"},
		"sink.verdict.ns_per_call":            {perCall(layerVerdict), "ns"},
		"topology.epochs.advance_ns":          {float64(t.total[layerAdvance]) / math.Max(1, float64(t.calls[layerAdvance])), "ns"},
		"topology.epochs.first_verify_ns":     {float64(t.firstVerifyNs) / math.Max(1, float64(t.firstVerifies)), "ns"},
		"mac.anonid_ns":                       {anonNs, "ns"},
		"mac.sum_ns":                          {sumNs, "ns"},
		"trace.overhead_frac":                 {traced.elapsed.Seconds()/ref.elapsed.Seconds() - 1, "frac"},
		"trace.coverage":                      {t.coverage(), "frac"},
	}, nil
}

// macSink keeps the timed MAC loops from being optimized away.
var macSink byte

// macCosts times Hasher.AnonID and Hasher.Sum over the workload's nodes
// with warm key schedules; Sum hashes the stream's first frame, a
// typical nested-MAC input.
func macCosts(w workload, seed int64, s *stream) (anonNs, sumNs float64, err error) {
	const calls = 200_000
	d, err := w.deploy(seed)
	if err != nil {
		return 0, 0, err
	}
	h := d.keys.Hasher()
	nodes := d.topo.Nodes()
	for _, id := range nodes {
		h.Schedule(id)
	}
	data := s.bytes(0, 1)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		a := h.AnonID(nodes[i%len(nodes)], packet.Report{Event: uint32(i)})
		macSink ^= a[0]
	}
	anonNs = float64(time.Since(t0).Nanoseconds()) / calls
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		m := h.Sum(nodes[i%len(nodes)], data)
		macSink ^= m[0]
	}
	sumNs = float64(time.Since(t0).Nanoseconds()) / calls
	return anonNs, sumNs, nil
}

func boolFrac(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
