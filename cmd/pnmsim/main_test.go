package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFig4CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "packets,n=10,n=20,n=30\n") {
		t.Fatalf("output:\n%s", out[:80])
	}
}

func TestRunFig4Plot(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig4", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Fatal("plot output missing")
	}
}

func TestRunFig5SmallOverride(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig5", "-runs", "5", "-seed", "9"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n=10") {
		t.Fatalf("output:\n%s", buf.String()[:80])
	}
}

func TestRunMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "matrix"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pnm", "nested", "MISLED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("matrix missing %q:\n%s", want, out)
		}
	}
}

func TestRunTables(t *testing.T) {
	// The cheap tabular experiments all render through the same path;
	// exercise each dispatch arm with minimal settings.
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "filter"}, "E[hops]"},
		{[]string{"-exp", "overhead"}, "bytes/pkt"},
		{[]string{"-exp", "related"}, "per-node memory"},
	}
	for _, tt := range tests {
		var buf bytes.Buffer
		if err := run(tt.args, &buf); err != nil {
			t.Fatalf("%v: %v", tt.args, err)
		}
		if !strings.Contains(buf.String(), tt.want) {
			t.Fatalf("%v output missing %q:\n%s", tt.args, tt.want, buf.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	for _, exp := range []string{"bogus", "dynamics"} {
		if err := run([]string{"-exp", exp}, &buf); err == nil {
			t.Fatalf("-exp %s: want error", exp)
		}
	}
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("want flag error")
	}
}

// TestRunRejectsIgnoredFlags checks that an experiment refuses a flag it
// would otherwise drop and print its defaults, including a -runs below 1.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	tests := []struct {
		args []string
		flag string
	}{
		{[]string{"-exp", "matrix", "-runs", "1"}, "runs"},
		{[]string{"-exp", "filter", "-seed", "5", "-runs", "3"}, "runs"},
		{[]string{"-exp", "filter", "-seed", "5"}, "seed"},
		{[]string{"-exp", "fig4", "-seed", "2"}, "seed"},
		{[]string{"-exp", "fig4", "-runs", "2"}, "runs"},
		{[]string{"-exp", "resolve", "-runs", "2"}, "runs"},
		{[]string{"-exp", "related", "-runs", "2"}, "runs"},
		{[]string{"-exp", "background", "-runs", "2"}, "runs"},
		{[]string{"-exp", "overhead", "-runs", "2"}, "runs"},
		{[]string{"-exp", "benchsink", "-runs", "2"}, "runs"},
		{[]string{"-exp", "benchfault", "-runs", "2"}, "runs"},
		{[]string{"-exp", "benchchurn", "-runs", "2"}, "runs"},
		{[]string{"-exp", "headline", "-plot"}, "plot"},
		{[]string{"-exp", "fig5", "-stats"}, "stats"},
		{[]string{"-exp", "molepos", "-runs", "-3"}, "runs"},
		{[]string{"-exp", "fig5", "-runs", "0"}, "runs"},
	}
	for _, tt := range tests {
		var buf bytes.Buffer
		err := run(tt.args, &buf)
		if err == nil {
			t.Fatalf("%v accepted", tt.args)
		}
		exp := tt.args[1]
		if !strings.Contains(err.Error(), exp) || !strings.Contains(err.Error(), "-"+tt.flag) {
			t.Fatalf("%v: error %q does not name experiment %s and flag -%s", tt.args, err, exp, tt.flag)
		}
		if buf.Len() != 0 {
			t.Fatalf("%v printed output before failing:\n%s", tt.args, buf.String())
		}
	}
}
