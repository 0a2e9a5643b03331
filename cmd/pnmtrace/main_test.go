package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunCleanScenario(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scheme", "pnm", "-attack", "none", "-n", "8", "-packets", "120", "-seed", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "one-hop precision: HELD") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "unequivocally identified: true") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestRunSwapIdentifiesSource: the sink resolves through the topology
// resolver, which rejects the swapped identity, so the identity-swap
// scenario forms no loop and identifies the source mole directly.
func TestRunSwapIdentifiesSource(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scheme", "pnm", "-attack", "swap", "-n", "10", "-packets", "200", "-seed", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"unequivocally identified: true", "one-hop precision: HELD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "identity-swap loop detected") {
		t.Fatalf("swap scenario formed a loop:\n%s", out)
	}
}

func TestRunVerbose(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scheme", "nested", "-attack", "remove", "-n", "8", "-packets", "3", "-seed", "2", "-v"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pkt   1: accepted chain") {
		t.Fatalf("verbose output missing per-packet lines:\n%s", out)
	}
}

func TestRunDropSelfDefeats(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scheme", "nested", "-attack", "drop", "-n", "8", "-packets", "20", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "N/A") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunMisledScenario(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scheme", "naive", "-attack", "drop", "-n", "10", "-packets", "300", "-seed", "4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BROKEN") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scheme", "bogus"}, &buf); err == nil {
		t.Fatal("want error for unknown scheme")
	}
	if err := run([]string{"-attack", "bogus"}, &buf); err == nil {
		t.Fatal("want error for unknown attack")
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Fatal("want error for unknown flag")
	}
}

// TestRunRejectsInvalidMarks: -marks sets p = marks/n, so a NaN or a
// negative count is a probability outside [0, 1], which the scheme
// factory refuses before any scenario runs.
func TestRunRejectsInvalidMarks(t *testing.T) {
	for _, marks := range []string{"NaN", "-1"} {
		var buf bytes.Buffer
		if err := run([]string{"-marks", marks}, &buf); err == nil {
			t.Errorf("-marks %s: want an error, got output:\n%s", marks, buf.String())
		}
	}
}
