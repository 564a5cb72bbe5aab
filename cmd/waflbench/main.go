// Command waflbench regenerates the paper's evaluation results (§V): every
// figure and the §V-C batching table, printed as text tables. Absolute
// numbers are simulator units; the shapes are the reproduction target (see
// EXPERIMENTS.md).
//
// Usage:
//
//	waflbench                 # run everything
//	waflbench -exp fig4       # one experiment: fig4..fig9, batch, ablations
//	waflbench -window 400ms   # measurement window
//	waflbench -exp fig4 -trace fig4   # dump fig4-NNN.json Perfetto timelines
//	waflbench -crashcheck     # crash corpus: crash, recover, verify (§II-C)
//	waflbench -exp agedvol -benchjson BENCH.json   # machine-readable results
//	waflbench -exp flexgroup -members 4 -benchjson BENCH.json  # cluster scaling
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wafl"
	"wafl/harness"
	"wafl/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4 fig5 fig6 fig7 fig8 fig9 batch ablations snapchurn agedvol clonefleet parallelcp flexgroup overload all")
	benchjson := flag.String("benchjson", "", "write machine-readable results (ops/sec, fill words, walloc cores, get waits) to this JSON file")
	window := flag.Duration("window", 400*time.Millisecond, "measurement window (simulated)")
	warmup := flag.Duration("warmup", 200*time.Millisecond, "warmup (simulated)")
	cleaners := flag.Int("cleaners", 4, "parallel cleaner-thread count for the permutation experiments")
	members := flag.Int("members", 1, "cluster width: flexgroup sweeps 1..members (doubling); other experiments run at this width")
	trace := flag.String("trace", "", "dump one Chrome trace JSON per measurement as <prefix>-NNN.json")
	traceEvents := flag.Int("trace-events", 0, "trace ring-buffer capacity in events (0 = default)")
	crashcheck := flag.Bool("crashcheck", false, "run the crash corpus (crash, recover, double crash, verify every acknowledged op) instead of the figures")
	overloadcheck := flag.Bool("overloadcheck", false, "run the admission-control SLO check instead of the figures (exit 1 on violation)")
	flag.Parse()

	if *overloadcheck {
		rc := harness.DefaultRun()
		start := time.Now()
		if err := harness.OverloadCheck(rc); err != nil {
			fmt.Fprintf(os.Stderr, "overloadcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("overloadcheck: admission SLO holds (%.1fs host time)\n", time.Since(start).Seconds())
		return
	}

	if *crashcheck {
		start := time.Now()
		tab, err := harness.CrashCheck(harness.CrashCorpus())
		fmt.Println(tab.String())
		fmt.Printf("(crashcheck took %.1fs host time)\n", time.Since(start).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *trace != "" {
		harness.EnableTracing(*trace, *traceEvents)
	}

	rc := harness.DefaultRun()
	rc.Window = wafl.Duration(window.Nanoseconds())
	rc.Warmup = wafl.Duration(warmup.Nanoseconds())
	if *members > 1 {
		rc.Base.Members = *members
	}

	var benchResults []harness.BenchResult

	run := func(name string, fn func() (harness.Table, error)) {
		if *exp != "all" && !strings.EqualFold(*exp, name) {
			return
		}
		start := time.Now()
		t, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		fmt.Printf("(%s took %.1fs host time)\n\n", name, time.Since(start).Seconds())
	}

	if *exp == "inspect" {
		inspect(rc, *cleaners)
		return
	}

	run("fig4", func() (harness.Table, error) {
		t, _, err := harness.Fig4(rc, *cleaners)
		return t, err
	})
	run("fig5", func() (harness.Table, error) {
		t, _, err := harness.Fig5(rc, 6)
		return t, err
	})
	run("fig6", func() (harness.Table, error) {
		t, _, err := harness.Fig6(rc, *cleaners)
		return t, err
	})
	run("fig7", func() (harness.Table, error) {
		t, _, err := harness.Fig7(rc, *cleaners)
		return t, err
	})
	run("fig8", func() (harness.Table, error) {
		t, _, err := harness.Fig8(rc)
		return t, err
	})
	run("fig9", func() (harness.Table, error) {
		t, _, err := harness.Fig9(rc)
		return t, err
	})
	run("batch", func() (harness.Table, error) {
		t, _, err := harness.BatchedCleaning(rc)
		return t, err
	})
	run("ablations", func() (harness.Table, error) {
		t, err := harness.Ablations(rc)
		return t, err
	})
	run("snapchurn", func() (harness.Table, error) {
		t, _, err := harness.SnapshotChurn(rc)
		return t, err
	})
	run("agedvol", func() (harness.Table, error) {
		t, res, err := harness.AgedVolume(rc)
		benchResults = append(benchResults, res...)
		return t, err
	})
	run("clonefleet", func() (harness.Table, error) {
		t, res, err := harness.CloneFleet(rc)
		benchResults = append(benchResults, res...)
		return t, err
	})
	run("parallelcp", func() (harness.Table, error) {
		t, res, err := harness.ParallelCP(rc)
		benchResults = append(benchResults, res...)
		return t, err
	})
	run("overload", func() (harness.Table, error) {
		t, points, err := harness.Overload(rc)
		benchResults = append(benchResults, harness.OverloadBench(points, rc.Window)...)
		return t, err
	})
	run("flexgroup", func() (harness.Table, error) {
		fc := harness.DefaultFlexgroup()
		fc.Base = harness.DefaultRun().Base // widths come from the sweep, not -members
		fc.MemberCounts = nil
		for n := 1; n <= *members; n *= 2 {
			fc.MemberCounts = append(fc.MemberCounts, n)
		}
		if len(fc.MemberCounts) < 2 {
			fc.MemberCounts = []int{1, 2, 4}
		}
		t, _, res, err := harness.Flexgroup(fc)
		benchResults = append(benchResults, res...)
		return t, err
	})

	if *benchjson != "" {
		if len(benchResults) == 0 {
			fmt.Fprintf(os.Stderr, "-benchjson: no experiments produced machine-readable results (try -exp agedvol)\n")
			os.Exit(1)
		}
		if err := harness.WriteBenchJSON(*benchjson, benchResults); err != nil {
			fmt.Fprintf(os.Stderr, "-benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(benchResults), *benchjson)
	}
}

// inspect runs one workload/config pair and dumps detailed internals —
// the calibration and debugging view.
func inspect(rc harness.RunConfig, cleaners int) {
	for _, mode := range []struct {
		name     string
		infra    bool
		cleaners int
	}{
		{"baseline", false, 1},
		{"wa", true, cleaners},
	} {
		cfg := rc.Base
		cfg.Allocator.InfraParallel = mode.infra
		cfg.Allocator.InitialCleaners = mode.cleaners
		cfg.Allocator.MaxCleaners = mode.cleaners
		sys, err := wafl.NewSystem(cfg)
		if err != nil {
			panic(err)
		}
		w := workload.DefaultSeqWrite()
		w.Attach(sys)
		res := sys.Measure(rc.Warmup, rc.Window)
		fmt.Printf("[%s] %s\n", mode.name, res)
		fmt.Printf("[%s] %s\n", mode.name, sys.InfraStats())
		fmt.Printf("[%s] cp: %s\n\n", mode.name, sys.CPReport())
	}
}
