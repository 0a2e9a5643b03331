package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pnm/internal/loadgen"
	"pnm/internal/packet"
	"pnm/internal/sink"
	"pnm/internal/topology"
	"pnm/internal/transport"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// runResult runs the command line and parses its last output line.
func runResult(t *testing.T, args ...string) (map[string]json.RawMessage, map[string]metric) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	var metrics map[string]metric
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return top, metrics
}

func metricNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsPassGates runs every workload, shrunk, end to end over
// loopback with the traced replay, and requires the correctness gates to
// hold, the declared per-layer metrics to be reported, and every
// goroutine the run started to have exited.
func TestWorkloadsPassGates(t *testing.T) {
	_, perLayer := declared(t)
	before := runtime.NumGoroutine()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			top, metrics := runResult(t, "--workload", name, "--seed", "3",
				"--seconds", "0.1", "--trace", "1", "--spans", spans)
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := top[key]; !ok {
					t.Errorf("result line lacks %q", key)
				}
			}
			if len(top) != 4 {
				t.Errorf("result line has %d keys, want 4", len(top))
			}
			if string(top["correct"]) != "true" || string(top["failed"]) != "0" {
				t.Errorf("correct=%s failed=%s", top["correct"], top["failed"])
			}
			if got := metricNames(metrics); !reflect.DeepEqual(got, perLayer) {
				t.Errorf("traced metrics %v, BENCHMARK.json declares %v", got, perLayer)
			}
			if n := countLines(t, spans); n == 0 {
				t.Error("no spans written")
			}
		})
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestUntracedReportsEndToEnd checks the untraced result line carries
// exactly the declared end-to-end metrics, none of them zero.
func TestUntracedReportsEndToEnd(t *testing.T) {
	endToEnd, _ := declared(t)
	_, metrics := runResult(t, "--workload", "dense-300", "--seed", "2", "--seconds", "0.1", "--trace", "0")
	if got := metricNames(metrics); !reflect.DeepEqual(got, endToEnd) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, endToEnd)
	}
	for name, m := range metrics {
		if m.Value == 0 {
			t.Errorf("%s is 0", name)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dense-300", "--trace", "2"},
		{"--workload", "dense-300", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Name == "" || sp.End < sp.Start {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
	}
	return n
}

// TestStreamIsPureFunctionOfSeed pins the generator: the same seed gives
// byte-identical frames, another seed different ones.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		digest := func(seed int64) string {
			s, err := newStream(w, seed, 100, 300)
			if err != nil {
				t.Fatal(err)
			}
			return s.digest()
		}
		if a, b := digest(5), digest(5); a != b {
			t.Errorf("%s: seed 5 gave %s then %s", name, a, b)
		}
		if a, b := digest(5), digest(6); a == b {
			t.Errorf("%s: seeds 5 and 6 both gave %s", name, a)
		}
	}
}

// TestTracedResolverYieldsSameCandidates checks the span decorator is
// transparent: for every mark of a stream, hinted and unhinted, it
// streams the same candidates as a bare resolver, and it times each
// Resolve call.
func TestTracedResolverYieldsSameCandidates(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		d, err := w.deploy(4)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newStream(w, 4, 0, 200)
		if err != nil {
			t.Fatal(err)
		}
		set := topology.NewEpochSet(d.topo)
		for e := 1; e < len(s.nets); e++ {
			set.Advance(s.nets[e])
		}
		tr := newTracer(1)
		bare := sink.NewTopologyResolverEpochs(d.keys, set)
		traced := newTracedResolver(sink.NewTopologyResolverEpochs(d.keys, set), tr)
		var msgs []packet.Message
		w.generate(d, 4, s.len(), func(i int) *topology.Network { return set.At(s.epoch(i)) },
			func(msg packet.Message) { msgs = append(msgs, msg.Clone()) })
		calls := 0
		for i, msg := range msgs {
			for _, mk := range msg.Marks {
				for _, prev := range []packet.NodeID{packet.SinkID, d.sources[0]} {
					havePrev := prev != packet.SinkID
					want := sink.ResolveAll(bare, msg.Report, mk.AnonID, prev, havePrev, s.epoch(i))
					got := sink.ResolveAll(traced, msg.Report, mk.AnonID, prev, havePrev, s.epoch(i))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s packet %d: decorated resolver yields %v, bare %v", name, i, got, want)
					}
					calls++
				}
			}
		}
		if calls == 0 || tr.calls[layerResolve] != int64(calls) {
			t.Errorf("%s: %d Resolve calls, tracer timed %d", name, calls, tr.calls[layerResolve])
		}
	}
}

// TestDenseIsTheLoadgenStream pins dense-300 to the stream pnmload sends
// for the same deployment.
func TestDenseIsTheLoadgenStream(t *testing.T) {
	sc, err := loadgen.New(denseConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStream(workloads["dense-300"], 9, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, msg := range sc.Stream(s.len()) {
		want = transport.AppendFrame(want, msg)
	}
	if !bytes.Equal(s.frames, want) {
		t.Fatal("dense-300 frames differ from loadgen's Stream")
	}
}
