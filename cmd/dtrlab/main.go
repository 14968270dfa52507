// Command dtrlab regenerates the tables and figures of the paper's
// evaluation section (Pezoa, Hayat, Wang, Dhakal — ICPP 2010):
//
//	dtrlab [-fidelity quick|full] [-csv] <experiment>
//
// Experiments:
//
//	fig1      mean execution time vs policy, low & severe delay (Fig. 1)
//	fig2      service reliability vs policy, low & severe delay (Fig. 2)
//	table1    optimal DTR policies per stochastic model (Table I)
//	fig3      the Pareto-1 severe-delay optimization surface (Fig. 3)
//	table2    five-server Algorithm-1 policies vs benchmarks (Table II)
//	fig4ab    empirical testbed fitting pipeline (Fig. 4(a,b))
//	fig4c     testbed reliability: theory vs MC vs testbed (Fig. 4(c))
//	ablations grid-step, Algorithm-1 K, and delay-sweep studies
//	staleness Algorithm 1 under dated queue-length information (XE-1)
//	extensions optimal policies under families beyond the paper's five (XE-2)
//	all       everything above, in order
//
// Full fidelity reproduces the paper's scales (L12 stride 1, 10^4
// Monte-Carlo replications, 500 testbed realizations) and takes tens of
// minutes on a laptop; quick fidelity exercises the same code in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dtr/internal/exper"
	"dtr/internal/obs"
	"dtr/internal/par"
)

func main() {
	obs.Exit("dtrlab", lab())
}

func lab() error {
	fidName := flag.String("fidelity", "quick", "experiment fidelity: quick or full")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	mcReps := flag.Int("mcreps", 0, "override Monte-Carlo replications")
	tbReps := flag.Int("testbed-reps", 0, "override testbed realizations")
	stride := flag.Int("stride", 0, "override the L12 sweep stride")
	seed := flag.Uint64("seed", 0, "override the experiment seed")
	workers := par.BindFlag(flag.CommandLine)
	obsCfg := obs.BindFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dtrlab [-fidelity quick|full] [-csv] [-workers N] [-metrics-addr :9090] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: fig1 fig2 table1 fig3 table2 fig4ab fig4c ablations staleness extensions all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		return obs.UsageErrorf(flag.CommandLine, "need an experiment")
	}
	experiment := flag.Arg(0)
	if flag.NArg() > 1 {
		// Flags are also accepted after the experiment name
		// (`dtrlab fig1 -metrics-addr :0`); stdlib flag parsing stops at
		// the first positional argument, so parse the remainder too.
		_ = flag.CommandLine.Parse(flag.Args()[1:]) // ExitOnError: exits on a bad flag
		if flag.NArg() != 0 {
			return obs.UsageErrorf(flag.CommandLine, "unexpected argument %q", flag.Arg(0))
		}
	}

	var fid exper.Fidelity
	switch *fidName {
	case "quick":
		fid = exper.Quick()
	case "full":
		fid = exper.Full()
	default:
		return obs.UsageErrorf(flag.CommandLine, "unknown fidelity %q", *fidName)
	}
	if err := workers.Validate(); err != nil {
		return obs.UsageErrorf(flag.CommandLine, "%v", err)
	}
	fid.Workers = workers.N
	if err := obsCfg.Start(); err != nil {
		return err
	}
	if *mcReps > 0 {
		fid.MCReps = *mcReps
	}
	if *tbReps > 0 {
		fid.TestbedReps = *tbReps
	}
	if *stride > 0 {
		fid.SweepStride = *stride
	}
	if *seed != 0 {
		fid.Seed = *seed
	}

	emit := func(tabs ...*exper.Table) {
		for _, t := range tabs {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
	}

	var run func(name string) error
	run = func(name string) error {
		started := time.Now()
		if name != "all" {
			defer obs.StartSpan("experiment", "name", name, "fidelity", fid.Name)()
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(started).Round(time.Millisecond))
		}()
		switch name {
		case "fig1":
			for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
				t, err := exper.Fig1(d, fid)
				if err != nil {
					return err
				}
				e, err := exper.MarkovianError(d, true, fid)
				if err != nil {
					return err
				}
				emit(t, e)
			}
		case "fig2":
			for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
				t, err := exper.Fig2(d, fid)
				if err != nil {
					return err
				}
				e, err := exper.MarkovianError(d, false, fid)
				if err != nil {
					return err
				}
				emit(t, e)
			}
		case "table1":
			for _, d := range []exper.Delay{exper.LowDelay, exper.SevereDelay} {
				t, err := exper.Table1(d, fid)
				if err != nil {
					return err
				}
				emit(t)
			}
		case "fig3":
			tabs, err := exper.Fig3(fid)
			if err != nil {
				return err
			}
			emit(tabs...)
		case "table2":
			for _, reliable := range []bool{true, false} {
				t, err := exper.Table2(reliable, fid)
				if err != nil {
					return err
				}
				emit(t)
			}
		case "fig4ab":
			tabs, err := exper.Fig4AB(fid)
			if err != nil {
				return err
			}
			emit(tabs...)
		case "fig4c":
			t, err := exper.Fig4C(fid)
			if err != nil {
				return err
			}
			emit(t)
		case "ablations":
			t1, err := exper.AblationGridStep(fid)
			if err != nil {
				return err
			}
			t2, err := exper.AblationK(fid)
			if err != nil {
				return err
			}
			t3, err := exper.AblationDelaySweep(fid)
			if err != nil {
				return err
			}
			emit(t1, t2, t3)
		case "staleness":
			t, err := exper.Staleness(fid)
			if err != nil {
				return err
			}
			emit(t)
		case "extensions":
			t, err := exper.Extensions(fid)
			if err != nil {
				return err
			}
			emit(t)
		case "all":
			for _, sub := range []string{"fig1", "fig2", "table1", "fig3", "table2", "fig4ab", "fig4c", "ablations", "staleness", "extensions"} {
				if err := run(sub); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	err := run(experiment)
	if oerr := obsCfg.Stop(); oerr != nil && err == nil {
		err = oerr
	}
	return err
}
