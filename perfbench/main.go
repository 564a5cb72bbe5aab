// Command perfbench is the repository's benchmark. It runs one named
// workload against the public wafl API for a fixed host-time budget,
// repeating set-up, a measured window and a crash/recover/fsck/oracle
// check, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, taken from traced reps (Config.Trace) and from
// CPU profiles of untraced reps. Simulated figures are exact for a seed:
// every rep of a run, traced or not, must reproduce them bit for bit, or
// the run fails.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	python3 perfbench/run.py --workload seqwrite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: seqwrite, randrw or openmix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds to keep repeating reps")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced and profiled reps")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res != nil {
			printJSON(os.Stdout, res)
		}
		os.Exit(1)
	}
	printJSON(os.Stdout, res)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"` // always 0: see report
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(out io.Writer, res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	fmt.Fprintln(out, string(b))
}

// subSeeds is how many sub-seeds a run pools for its end-to-end metrics:
// each is its own set-up and window, so the pooled figures vary less from
// seed to seed than one window's would.
const subSeeds = 3

// subSeed derives the k-th sub-seed of a run seed.
func subSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

// run repeats reps of w until budget is spent, checks determinism across
// them, prints a readable report to out and returns the result. Without
// trace it runs each sub-seed once, then repeats them from the first (at
// least one repeat). With trace it alternates untraced (CPU-profiled) and
// traced reps of the first sub-seed, at least one of each. A failed
// correctness or determinism check returns the partial result (Correct
// false) with the error.
func run(w *workload, seed int64, budget time.Duration, trace bool, out io.Writer) (*result, error) {
	start := time.Now()
	var reps []*rep
	fail := &result{Metrics: map[string]metric{}}
	minReps := subSeeds + 1
	if trace {
		minReps = 2
	}
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		sub := subSeed(seed, i%subSeeds)
		if trace {
			sub = subSeed(seed, 0)
		}
		repStart := time.Now()
		r, err := runRep(w, sub, traced, trace && !traced)
		if err != nil {
			return fail, fmt.Errorf("%s seed %d (sub-seed %d, traced=%v): %w", w.name, seed, sub, traced, err)
		}
		if err := sameSim(reps, r); err != nil {
			return fail, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		reps = append(reps, r)
		fmt.Fprintf(out, "rep %d sub-seed=%d traced=%v setup=%.3fs window=%.3fs (%.0f sim ops per host s) checked=%d blocks\n",
			i, sub, traced, r.host.setup, r.host.window, r.host.ops/r.host.window, r.checked)
		// Stop once the budget is spent, or when the next rep would end
		// further past it than stopping now leaves it short.
		elapsed := time.Since(start)
		if len(reps) >= minReps && elapsed+time.Since(repStart)/2 >= budget {
			break
		}
	}
	return report(w, seed, reps, trace, out)
}

// sameSim is the determinism guard: every simulated figure r shares with
// an earlier rep of the same sub-seed must be bit-identical to it.
func sameSim(prev []*rep, r *rep) error {
	for _, p := range prev {
		if p.seed != r.seed {
			continue
		}
		for k, v := range r.sim {
			if pv, ok := p.sim[k]; ok && math.Float64bits(pv) != math.Float64bits(v) {
				return fmt.Errorf("nondeterministic: sub-seed %d %s is %v here but %v in an earlier rep (traced %v vs %v)",
					r.seed, k, v, pv, r.traced, p.traced)
			}
		}
	}
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostTotals sums the host figures of the reps that match traced. The
// process's first rep pays for growing the heap (page faults) and is left
// out whenever another rep can stand in for it.
func hostTotals(reps []*rep, traced bool) (sum hostFigures, setups, peaks []float64) {
	var use []*rep
	for _, r := range reps {
		if r.traced == traced {
			use = append(use, r)
		}
	}
	if len(use) > 1 && use[0] == reps[0] {
		use = use[1:]
	}
	for _, r := range use {
		h := r.host
		sum.window += h.window
		sum.ops += h.ops
		sum.events += h.events
		sum.alloc += h.alloc
		sum.mallocs += h.mallocs
		sum.gcs += h.gcs
		setups = append(setups, h.setup)
		peaks = append(peaks, h.peakMB)
	}
	return sum, setups, peaks
}

// report assembles the run's metrics. End-to-end simulated figures pool
// the first rep of each sub-seed; per-layer simulated figures come from
// the first sub-seed (traced figures from its traced rep); host figures
// come from the untraced reps (hostTotals); the profile split sums the
// profiled reps. It fails an end-to-end run whose pooled windows hold fewer than
// ten latency samples beyond p99.9.
func report(w *workload, seed int64, reps []*rep, trace bool, out io.Writer) (*result, error) {
	values := make(map[string]float64)
	for i := len(reps) - 1; i >= 0; i-- {
		for k, v := range reps[i].sim {
			values[k] = v
		}
	}
	var firsts []*tally
	seen := make(map[int64]bool)
	for _, r := range reps {
		if !seen[r.seed] {
			seen[r.seed] = true
			firsts = append(firsts, r.tally)
		}
	}
	pooled := pool(firsts)
	e2e, samples, beyond := pooled.endToEnd()
	for k, v := range e2e {
		values[k] = v
	}
	// Host rates pool the untraced windows (total work over total time);
	// set-up time and peak heap are medians over the reps.
	h, setups, peaks := hostTotals(reps, false)
	values["setup_s"] = median(setups)
	values["host_peak_heap_mb"] = median(peaks)
	values["host_sim_ops_per_s"] = h.ops / h.window
	values["host_alloc_bytes_per_op"] = h.alloc / h.ops
	values["sim.host_ns_per_event"] = h.window * 1e9 / h.events
	values["host.mallocs_per_op"] = h.mallocs / h.ops
	values["host.gc_cycles_per_kop"] = h.gcs * 1e3 / h.ops
	defs := endToEnd
	if trace {
		defs = perLayer
		ht, _, _ := hostTotals(reps, true)
		values["trace.overhead_ratio"] = (ht.window / ht.ops) / (h.window / h.ops)
		layers := make(map[string]float64)
		total := 0.0
		for _, r := range reps {
			for l, n := range r.layers {
				layers[l] += n
				total += n
			}
		}
		for _, l := range hostLayers {
			values["host.self_frac."+l] = ratio(layers[l], total)
		}
	}

	// No op has a failure outcome: a lost or wrong acknowledged write fails
	// the whole run instead. Ops refused (shed) by admission control
	// are not failures; op_ok_ratio and the SLO rate count them.
	res := &result{Correct: true, Attempted: pooled.attempted, Metrics: make(map[string]metric)}
	fmt.Fprintf(out, "%s seed=%d reps=%d trace=%v attempted=%d refused=%d (over %d sub-seeds)\n",
		w.name, seed, len(reps), trace, res.Attempted, pooled.refused, len(firsts))
	for k, s := range pooled.steps {
		fmt.Fprintf(out, "  step %d: rate %.0f/s, %.0f arrivals/s, %d arrivals, %d refused, %d late, backlog %d -> %d\n",
			k, s.rate, float64(s.arrivals)/s.secs, s.arrivals, s.refused, s.lsLate, s.pendingStart, s.pendingEnd)
	}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		note := ""
		switch d.name {
		case "sim_lat_p50_us":
			note = fmt.Sprintf("n=%d", samples)
		case "sim_lat_p999_us":
			note = fmt.Sprintf("n=%d, %d beyond", samples, beyond)
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-6s %s\n", d.name, v, d.unit, note)
	}
	if len(missing) > 0 {
		res.Correct = false
		return res, fmt.Errorf("metrics not measured: %v", missing)
	}
	if !trace && beyond < 10 {
		res.Correct = false
		return res, fmt.Errorf("only %d latency samples beyond p99.9 (of %d); lengthen the window", beyond, samples)
	}
	return res, nil
}
