// Command pnmsim regenerates the paper's figures and tables.
//
// Usage:
//
//	pnmsim -exp NAME [flags]
//
// `pnmsim -h` lists the experiment names. Output is CSV for the figure
// experiments (pipe into a plotter), an aligned text table for the
// tabular ones, or JSON for benchsink, benchfault and benchchurn
// (redirect into BENCH_sink.json / BENCH_fault.json / BENCH_churn.json).
// -plot renders a crude ASCII plot instead of CSV. -stats dumps the sink
// chain's obs counters to stderr after instrumented experiments
// (resolve).
//
// -runs and -seed override an experiment's run count and seed; an
// experiment rejects any flag it would ignore rather than silently
// printing its defaults, and -runs must be at least 1.
//
// Run-averaged experiments fan their independent runs across GOMAXPROCS
// goroutines (set the GOMAXPROCS environment variable to change it).
// Every run derives its seed purely from the run index, and aggregation
// happens in run order, so the output is byte-identical for every worker
// count — GOMAXPROCS only changes how fast the answer arrives.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pnm/internal/experiment"
	"pnm/internal/obs"
	"pnm/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnmsim:", err)
		os.Exit(1)
	}
}

// options carries the optional flags to an experiment.
type options struct {
	runs  int
	seed  int64
	plot  bool
	stats bool
}

// override replaces a config's run count and seed with the flags that
// were set (0 means unset).
func (o options) override(runs *int, seed *int64) {
	if o.runs != 0 {
		*runs = o.runs
	}
	o.overrideSeed(seed)
}

// overrideSeed replaces a config's seed when -seed was set.
func (o options) overrideSeed(seed *int64) {
	if o.seed != 0 {
		*seed = o.seed
	}
}

// spec is one experiment: the optional flags it reads and how it runs.
type spec struct {
	flags []string
	run   func(o options, w io.Writer) error
}

// experiments is the one table of -exp names.
var experiments = map[string]spec{
	"fig4": {[]string{"plot"}, func(o options, w io.Writer) error {
		return emitSeries(w, "packets", experiment.Fig4(experiment.DefaultFig4()), o.plot)
	}},
	"fig5": {[]string{"runs", "seed", "plot"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultFig5()
		o.override(&cfg.Runs, &cfg.Seed)
		series, err := experiment.Fig5(cfg)
		if err != nil {
			return err
		}
		return emitSeries(w, "packets", series, o.plot)
	}},
	"fig6": {[]string{"runs", "seed", "plot"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultFig67()
		o.override(&cfg.Runs, &cfg.Seed)
		res, err := experiment.Fig67(cfg)
		if err != nil {
			return err
		}
		return emitSeries(w, "path length", res.Failures, o.plot)
	}},
	"fig7": {[]string{"runs", "seed", "plot"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultFig67()
		o.override(&cfg.Runs, &cfg.Seed)
		res, err := experiment.Fig67(cfg)
		if err != nil {
			return err
		}
		return emitSeries(w, "path length", []stats.Series{res.AvgPackets}, o.plot)
	}},
	"matrix": {[]string{"seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultMatrix()
		o.overrideSeed(&cfg.Seed)
		return emitText(w, experiment.RenderMatrix)(experiment.SecurityMatrix(cfg))
	}},
	"headline": {[]string{"runs", "seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultHeadline()
		o.override(&cfg.Runs, &cfg.Seed)
		return emitText(w, experiment.RenderHeadline)(experiment.Headline(cfg))
	}},
	"ablate": {[]string{"runs", "seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultAblation()
		o.override(&cfg.Runs, &cfg.Seed)
		return emitText(w, experiment.RenderAblation)(experiment.AblateMarkingProbability(cfg))
	}},
	"resolve": {[]string{"seed", "stats"}, func(o options, w io.Writer) error {
		// Deliberately serial: the experiment reports per-packet wall-clock
		// times, which parallel measurement would corrupt.
		cfg := experiment.DefaultResolve()
		o.overrideSeed(&cfg.Seed)
		var reg *obs.Registry
		if o.stats {
			reg = obs.New()
			cfg.Obs = reg
		}
		if err := emitText(w, experiment.RenderResolve)(experiment.ResolveComparison(cfg)); err != nil {
			return err
		}
		if reg != nil {
			fmt.Fprintln(os.Stderr, "obs counters (all sizes, both resolvers):")
			reg.Fprint(os.Stderr)
		}
		return nil
	}},
	"benchsink": {[]string{"seed"}, func(o options, w io.Writer) error {
		// The rows time the tracker under each resolver on the
		// interleaved stream and under the topology resolver on the keyed
		// stream. Verdict-hash equality within each stream is enforced at
		// generation time.
		cfg := experiment.DefaultSinkBench()
		o.overrideSeed(&cfg.Interleaved.Seed)
		o.overrideSeed(&cfg.Keyed.Seed)
		return emitBench(w)(experiment.SinkBench(cfg))
	}},
	"benchfault": {[]string{"seed"}, func(o options, w io.Writer) error {
		// Traceback convergence under deterministic fault plans in the
		// live simulator (E20); verdict equality with the fault-free
		// baseline is enforced at generation time, so the committed
		// document can never contain a scenario that broke the traceback.
		cfg := experiment.DefaultFaultBench()
		o.overrideSeed(&cfg.Seed)
		return emitBench(w)(experiment.FaultBench(cfg))
	}},
	"benchchurn": {[]string{"seed"}, func(o options, w io.Writer) error {
		// Traceback under topology churn with epoch-versioned resolution
		// (E23, and E18's rewire modes): packets-to-catch and
		// reconstruction cost per mode and churn level (with the pre-fix
		// rebuild cost counted, not run), stale-resolver divergence
		// counts, and per-run catch/identify/precision counts.
		cfg := experiment.DefaultChurnBench()
		o.overrideSeed(&cfg.Seed)
		return emitBench(w)(experiment.ChurnBench(cfg))
	}},
	"filter": {nil, func(_ options, w io.Writer) error {
		cfg := experiment.DefaultFilterCompare()
		fmt.Fprint(w, experiment.RenderFilterCompare(experiment.FilterCompare(cfg), cfg.AttackHours))
		return nil
	}},
	"related": {[]string{"seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultRelated()
		o.overrideSeed(&cfg.Seed)
		return emitText(w, experiment.RenderRelated)(experiment.RelatedComparison(cfg))
	}},
	"precision": {[]string{"runs", "seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultPrecision()
		o.override(&cfg.Runs, &cfg.Seed)
		return emitText(w, experiment.RenderPrecision)(experiment.Precision(cfg))
	}},
	"overhead": {[]string{"seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultOverhead()
		o.overrideSeed(&cfg.Seed)
		return emitText(w, experiment.RenderOverhead)(experiment.Overhead(cfg))
	}},
	"multisource": {[]string{"runs", "seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultMultiSource()
		o.override(&cfg.Runs, &cfg.Seed)
		return emitText(w, experiment.RenderMultiSource)(experiment.MultiSource(cfg))
	}},
	"background": {[]string{"seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultBackground()
		o.overrideSeed(&cfg.Seed)
		return emitText(w, experiment.RenderBackground)(experiment.BackgroundTraffic(cfg))
	}},
	"molepos": {[]string{"runs", "seed"}, func(o options, w io.Writer) error {
		cfg := experiment.DefaultMolePos()
		o.override(&cfg.Runs, &cfg.Seed)
		return emitText(w, experiment.RenderMolePos)(experiment.MolePos(cfg))
	}},
}

// run parses flags and dispatches to the selected experiment.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pnmsim", flag.ContinueOnError)
	var o options
	names := make([]string, 0, len(experiments))
	for name := range experiments {
		names = append(names, name)
	}
	slices.Sort(names)
	exp := fs.String("exp", "fig4", "experiment: "+strings.Join(names, ", "))
	fs.IntVar(&o.runs, "runs", 0, "override the run count, at least 1 (unset = experiment default)")
	fs.Int64Var(&o.seed, "seed", 0, "override the RNG seed (0 = experiment default)")
	fs.BoolVar(&o.plot, "plot", false, "render figures as ASCII plots instead of CSV")
	fs.BoolVar(&o.stats, "stats", false, "dump obs counters to stderr after instrumented experiments (resolve)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, ok := experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	// Reject a flag exp would ignore, and a -runs below 1.
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil || f.Name == "exp":
		case !slices.Contains(e.flags, f.Name):
			err = fmt.Errorf("experiment %s does not take -%s", *exp, f.Name)
		case f.Name == "runs" && o.runs < 1:
			err = fmt.Errorf("experiment %s: -runs must be at least 1, got %d", *exp, o.runs)
		}
	})
	if err != nil {
		return err
	}
	return e.run(o, w)
}

// emitText returns a printer for a tabular experiment's rendered rows.
func emitText[R any](w io.Writer, render func(R) string) func(R, error) error {
	return func(rows R, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprint(w, render(rows))
		return nil
	}
}

// emitBench returns a printer for a bench generator's JSON document.
func emitBench(w io.Writer) func(any, error) error {
	return func(res any, err error) error {
		if err != nil {
			return err
		}
		doc, err := experiment.RenderBench(res)
		if err != nil {
			return err
		}
		fmt.Fprint(w, doc)
		return nil
	}
}

// emitSeries prints series as CSV or ASCII plots.
func emitSeries(w io.Writer, xLabel string, series []stats.Series, plot bool) error {
	if plot {
		for _, s := range series {
			fmt.Fprint(w, stats.ASCIIPlot(s, 72, 16))
		}
		return nil
	}
	fmt.Fprint(w, stats.CSV(xLabel, series...))
	return nil
}
