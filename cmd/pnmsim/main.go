// Command pnmsim regenerates the paper's figures and tables.
//
// Usage:
//
//	pnmsim -exp fig4|fig5|fig6|fig7|matrix|headline|ablate|resolve|benchsink|benchfault|benchchurn|filter [flags]
//
// Output is CSV for the figure experiments (pipe into a plotter), an
// aligned text table for the tabular ones, or JSON for benchsink,
// benchfault and benchchurn (redirect into BENCH_sink.json /
// BENCH_fault.json / BENCH_churn.json). -plot renders
// a crude ASCII plot instead of CSV. -stats dumps the sink chain's obs counters to stderr
// after instrumented experiments (resolve).
//
// Run-averaged experiments fan their independent runs across -workers
// goroutines (default GOMAXPROCS). Every run derives its seed purely from
// the run index, and aggregation happens in run order, so the output is
// byte-identical for every worker count — -workers only changes how fast
// the answer arrives.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

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

// run parses flags and dispatches to the selected experiment.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pnmsim", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "fig4", "experiment: fig4, fig5, fig6, fig7, matrix, headline, ablate, resolve, benchsink, benchfault, benchchurn, filter, related, precision, overhead, multisource, background, dynamics, molepos")
		runs    = fs.Int("runs", 0, "override the run count (0 = experiment default)")
		seed    = fs.Int64("seed", 0, "override the RNG seed (0 = experiment default)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for run-parallel experiments (<= 0 = GOMAXPROCS); results are identical for every value")
		plot    = fs.Bool("plot", false, "render figures as ASCII plots instead of CSV")
		statsF  = fs.Bool("stats", false, "dump obs counters to stderr after instrumented experiments (resolve)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// emitBench prints a bench generator's JSON document.
	emitBench := func(res any, err error) error {
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

	switch *exp {
	case "fig4":
		series := experiment.Fig4(experiment.DefaultFig4())
		return emitSeries(w, "packets", series, *plot)
	case "fig5":
		cfg := experiment.DefaultFig5()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		series, err := experiment.Fig5(cfg)
		if err != nil {
			return err
		}
		return emitSeries(w, "packets", series, *plot)
	case "fig6":
		cfg := experiment.DefaultFig67()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		res, err := experiment.Fig67(cfg)
		if err != nil {
			return err
		}
		return emitSeries(w, "path length", res.Failures, *plot)
	case "fig7":
		cfg := experiment.DefaultFig67()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		res, err := experiment.Fig67(cfg)
		if err != nil {
			return err
		}
		return emitSeries(w, "path length", []stats.Series{res.AvgPackets}, *plot)
	case "matrix":
		cfg := experiment.DefaultMatrix()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		cells, err := experiment.SecurityMatrix(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderMatrix(cells))
		return nil
	case "headline":
		cfg := experiment.DefaultHeadline()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		rows, err := experiment.Headline(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderHeadline(rows))
		return nil
	case "ablate":
		cfg := experiment.DefaultAblation()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		rows, err := experiment.AblateMarkingProbability(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderAblation(rows))
		return nil
	case "resolve":
		// Deliberately serial: the experiment reports per-packet wall-clock
		// times, which parallel measurement would corrupt.
		cfg := experiment.DefaultResolve()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		var reg *obs.Registry
		if *statsF {
			reg = obs.New()
			cfg.Obs = reg
		}
		rows, err := experiment.ResolveComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderResolve(rows))
		if reg != nil {
			fmt.Fprintln(os.Stderr, "obs counters (all sizes, both resolvers):")
			reg.Fprint(os.Stderr)
		}
		return nil
	case "benchsink":
		// The rows time the tracker under each resolver on the
		// interleaved stream and under the topology resolver on the keyed
		// stream. Verdict-hash equality within each stream is enforced at
		// generation time.
		cfg := experiment.DefaultSinkBench()
		if *seed != 0 {
			cfg.Interleaved.Seed = *seed
			cfg.Keyed.Seed = *seed
		}
		return emitBench(experiment.SinkBench(cfg))
	case "benchfault":
		// Traceback convergence under deterministic fault plans in the
		// live simulator (E20); verdict equality with the fault-free
		// baseline is enforced at generation time, so the committed
		// document can never contain a scenario that broke the traceback.
		cfg := experiment.DefaultFaultBench()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		return emitBench(experiment.FaultBench(cfg))
	case "benchchurn":
		// Traceback under topology churn with epoch-versioned resolution
		// (E23): packets-to-catch and reconstruction cost per churn level,
		// stale-resolver divergence counts, and a full-rebuild reference
		// whose verdict-hash equality with the incremental tracker is
		// enforced at generation time.
		cfg := experiment.DefaultChurnBench()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		return emitBench(experiment.ChurnBench(cfg))
	case "filter":
		cfg := experiment.DefaultFilterCompare()
		cfg.Workers = *workers
		rows := experiment.FilterCompare(cfg)
		fmt.Fprint(w, experiment.RenderFilterCompare(rows, cfg.AttackHours))
		return nil
	case "related":
		cfg := experiment.DefaultRelated()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		rows, err := experiment.RelatedComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderRelated(rows))
		return nil
	case "precision":
		cfg := experiment.DefaultPrecision()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		rows, err := experiment.Precision(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderPrecision(rows))
		return nil
	case "multisource":
		cfg := experiment.DefaultMultiSource()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		rows, err := experiment.MultiSource(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderMultiSource(rows))
		return nil
	case "background":
		cfg := experiment.DefaultBackground()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		rows, err := experiment.BackgroundTraffic(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderBackground(rows))
		return nil
	case "dynamics":
		cfg := experiment.DefaultDynamics()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		rows, err := experiment.Dynamics(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderDynamics(rows))
		return nil
	case "molepos":
		cfg := experiment.DefaultMolePos()
		applyOverrides(&cfg.Runs, *runs, &cfg.Seed, *seed)
		cfg.Workers = *workers
		rows, err := experiment.MolePos(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderMolePos(rows))
		return nil
	case "overhead":
		cfg := experiment.DefaultOverhead()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		rows, err := experiment.Overhead(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiment.RenderOverhead(rows))
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

// applyOverrides replaces defaults with flag values when set.
func applyOverrides(runs *int, runsFlag int, seed *int64, seedFlag int64) {
	if runsFlag > 0 {
		*runs = runsFlag
	}
	if seedFlag != 0 {
		*seed = seedFlag
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
