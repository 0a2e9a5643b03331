package main

import (
	"bytes"
	"strings"
	"testing"

	"pnm/internal/packet"
	"pnm/internal/sink"
)

func TestRunLiveWithQuarantine(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-nodes", "80", "-side", "5", "-range", "1.4",
		"-packets", "100", "-seed", "3", "-quarantine",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "final verdict") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "the mole is inside the suspected neighborhood") {
		t.Fatalf("mole not localized:\n%s", out)
	}
	if !strings.Contains(out, "quarantined") {
		t.Fatalf("quarantine never triggered:\n%s", out)
	}
}

// TestRunLiveChaos: every event of the -chaos plan fires inside the
// traffic — the sink restore included — and the traceback still names
// the mole's neighborhood.
func TestRunLiveChaos(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-nodes", "80", "-side", "5", "-range", "1.4",
		"-packets", "400", "-seed", "3", "-chaos",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sink-crash", "sink-restore", "the mole is inside the suspected neighborhood"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRunLiveReproducible: each burst settles before the verdict is read
// and before due faults apply, so a lossy, faulted, quarantining run
// prints the same bytes every time.
func TestRunLiveReproducible(t *testing.T) {
	args := []string{
		"-nodes", "80", "-side", "5", "-range", "1.4", "-packets", "400", "-seed", "3",
		"-chaos", "-loss", "0.05", "-quarantine",
	}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("repeat run diverged:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestRunLiveErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nodes", "10", "-side", "100", "-range", "1"}, &buf); err == nil {
		t.Fatal("want error for disconnected topology")
	}
	if err := run([]string{"-bogusflag"}, &buf); err == nil {
		t.Fatal("want flag error")
	}
	if err := run([]string{"-queue", "bogus"}, &buf); err == nil {
		t.Fatal("want error for unknown queue policy")
	}
	if err := run([]string{"-debug", "127.0.0.1:-1"}, &buf); err == nil {
		t.Fatal("want error for a bad -debug address")
	}
	if err := run([]string{"-listen", "127.0.0.1:0"}, &buf); err == nil {
		t.Fatal("want flag error: socket ingest is pnmserve's job")
	}
}

// TestPrintFinalVerdict checks the HasStop gate: without an accepted
// mark there is no stop node to print, and previously the zero value
// leaked into the summary.
func TestPrintFinalVerdict(t *testing.T) {
	var buf bytes.Buffer
	printFinalVerdict(&buf, sink.Verdict{}, packet.NodeID(7))
	out := buf.String()
	if !strings.Contains(out, "final verdict") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "no stop node") {
		t.Fatalf("gated summary missing:\n%s", out)
	}
	if strings.Contains(out, "suspects") || strings.Contains(out, "identified=") {
		t.Fatalf("zero-value stop fields printed without HasStop:\n%s", out)
	}

	buf.Reset()
	printFinalVerdict(&buf, sink.Verdict{
		HasStop: true, Stop: 7, Suspects: []packet.NodeID{7, 9}, Identified: true,
	}, packet.NodeID(7))
	out = buf.String()
	if !strings.Contains(out, "stop V7") || !strings.Contains(out, "identified=true") {
		t.Fatalf("stop fields missing with HasStop:\n%s", out)
	}
	if !strings.Contains(out, "the mole is inside the suspected neighborhood") {
		t.Fatalf("localization line missing:\n%s", out)
	}
}
