package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wafl"
)

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0.
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s"},
	{"sim_lat_p50_us", "us"},
	{"sim_lat_p999_us", "us"},
	{"sim_cpu_us_per_op", "us"},
	{"sim_slo_rate_ops_s", "1/s"},
	{"op_ok_ratio", "ratio"},
	{"host_sim_ops_per_s", "1/s"},
	{"host_alloc_bytes_per_op", "B"},
	{"host_peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// cpPhases are the CP engine's phases, as its histograms name them.
var cpPhases = []string{"freeze+zombies", "clean", "records", "metafiles", "voltable", "amap flush", "commit"}

func phaseMetric(phase string) string {
	return "cp.phase." + strings.NewReplacer("+", "_", " ", "_").Replace(phase) + "_ms"
}

// perLayer are the single-layer metrics, printed with --trace 1.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sim.events_per_op", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.runq_wait_p99_us", "us"},
		{"sim.cores_busy", "cores"},
		{"client.cpu_us_per_op", "us"},
		{"client.stall_us_per_op", "us"},
		{"client.stalls_per_kop", "count"},
		{"nvlog.admit_delay_us_per_op", "us"},
		{"nvlog.shed_ratio", "ratio"},
		{"waffinity.cpu_us_per_op", "us"},
		{"waffinity.queue_wait_p99_us", "us"},
		{"core.cleaner_cpu_us_per_op", "us"},
		{"core.infra_cpu_us_per_op", "us"},
		{"core.walloc_cores", "cores"},
		{"core.get_waits_per_kop", "count"},
		{"core.tetris_blocks_per_send", "count"},
		{"core.cleaners_active", "count"},
		{"bitmap.vfill_words_per_vbucket", "count"},
		{"bitmap.fill_words_per_kblock", "count"},
		{"cp.per_s", "1/s"},
		{"cp.avg_ms", "ms"},
		{"cp.clean_ms", "ms"},
		{"cp.meta_ms", "ms"},
		{"cp.back_to_back_ratio", "ratio"},
		{"cp.inodes_per_cp", "count"},
	}
	for _, p := range cpPhases {
		m = append(m, metricDef{phaseMetric(p), "ms"})
	}
	m = append(m,
		metricDef{"aggregate.amap_writes_per_cp", "count"},
		metricDef{"raid.full_stripe_ratio", "ratio"},
		metricDef{"raid.cpu_us_per_op", "us"},
		metricDef{"storage.io_latency_p99_us", "us"},
		metricDef{"bcache.hit_ratio", "ratio"},
		metricDef{"bcache.evictions_per_kop", "count"},
	)
	for _, l := range hostLayers {
		m = append(m, metricDef{"host.self_frac." + l, "ratio"})
	}
	return append(m,
		metricDef{"host.mallocs_per_op", "count"},
		metricDef{"host.gc_cycles_per_kop", "count"},
		metricDef{"workload.gen_lag_p99_us", "us"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// rep is one set-up, measured window and correctness check of a workload.
type rep struct {
	traced bool
	// sim holds the simulated figures: exact for a seed, so every rep of a
	// run must reproduce them bit for bit. Traced reps add the figures
	// only the tracer can see.
	sim  map[string]float64
	host hostFigures
	// layers is the CPU profile's sample count per layer (profiled reps).
	layers map[string]float64

	seed    int64  // the sub-seed this rep ran
	tally   *tally // simulated window figures the end-to-end metrics pool
	checked int    // oracle blocks verified after recovery
}

// hostFigures are one rep's host-side measurements of its window (and its
// set-up time).
type hostFigures struct {
	setup, window float64 // host seconds
	ops, events   float64 // simulated ops completed and events dispatched
	alloc         float64 // bytes allocated
	mallocs, gcs  float64 // heap objects allocated, GC cycles completed
	peakMB        float64 // highest heap in use sampled between slices
}

// window sums the per-slice Results of a measured window.
type window struct {
	ops, blocks uint64
	coreSecs    wafl.CoreUsage // core-seconds per category
	stalls      uint64
	stallTime   wafl.Duration
	fullStripeW float64 // FullStripe weighted by blocks
	cleaners    int
}

func (w *window) add(r wafl.Results) {
	s := r.Window.Seconds()
	w.ops += r.Ops
	w.blocks += r.Blocks
	w.coreSecs.Client += r.Cores.Client * s
	w.coreSecs.Waffinity += r.Cores.Waffinity * s
	w.coreSecs.Cleaner += r.Cores.Cleaner * s
	w.coreSecs.Infra += r.Cores.Infra * s
	w.coreSecs.CP += r.Cores.CP * s
	w.coreSecs.RAID += r.Cores.RAID * s
	w.coreSecs.Other += r.Cores.Other * s
	w.stalls += r.Stalls
	w.stallTime += r.StallTime
	w.fullStripeW += r.FullStripe * float64(r.Blocks)
	w.cleaners = r.Cleaners
}

// histSnapshot clones every tracer histogram (none when tracing is off).
func histSnapshot(tr *wafl.Tracer) map[string]*wafl.TraceHistogram {
	out := make(map[string]*wafl.TraceHistogram)
	for _, h := range tr.Histograms() {
		out[h.Name] = h.Clone()
	}
	return out
}

// histWindow merges the window deltas of the histograms named name, or,
// when name ends in ':', of every histogram whose name starts with it (one
// per I/O kind).
func histWindow(before, after map[string]*wafl.TraceHistogram, name string) *wafl.TraceHistogram {
	sum := wafl.NewHistogram(name)
	for n, h := range after {
		if n == name || strings.HasSuffix(name, ":") && strings.HasPrefix(n, name) {
			sum.Merge(h.Delta(before[n]))
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runRep sets up w, measures one window, and runs the correctness gate.
func runRep(w *workload, seed int64, traced, profiled bool) (r *rep, err error) {
	runtime.GC()
	t0 := time.Now()
	cfg := w.config(seed)
	cfg.Trace = traced
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("new system: %w", err)
	}
	crashed := false
	defer func() {
		if !crashed {
			sys.Shutdown()
		}
	}()
	l, err := w.attach(sys, seed, w)
	if err != nil {
		return nil, err
	}
	sys.Run(w.warmup)
	setup := time.Since(t0)

	tr := sys.Tracer()
	h0 := histSnapshot(tr)
	in0, cp0, bc0 := sys.Counters(), sys.CPStats(), sys.BCacheStats()
	shed0, delay0 := sys.AdmissionStats()
	ev0 := sys.Events()
	runtime.GC()
	var m0, m1, ms runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := m0.HeapInuse
	var prof *os.File
	if profiled {
		// The file goes to $TMPDIR, which run.py points into the build
		// directory.
		if prof, err = os.CreateTemp("", "perfbench-*.pprof"); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		defer os.Remove(prof.Name())
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}

	l.begin(sys.Now())
	var win window
	start := time.Now()
	for i, d := range w.sliceDurs() {
		win.add(sys.Measure(0, d))
		if len(l.steps) > 0 {
			l.stepBoundary(i)
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > peak {
			peak = ms.HeapInuse
		}
	}
	wall := time.Since(start)
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	l.end(sys.Now())

	in1, cp1, bc1 := sys.Counters(), sys.CPStats(), sys.BCacheStats()
	shed1, delay1 := sys.AdmissionStats()
	events := float64(sys.Events() - ev0)
	h1 := histSnapshot(tr)

	if l.completed != win.ops {
		return nil, fmt.Errorf("generator counted %d completed ops, system %d", l.completed, win.ops)
	}
	if l.completed == 0 || l.attempted == 0 {
		return nil, fmt.Errorf("no ops completed in the window")
	}
	ops := float64(l.completed)
	secs := w.window.Seconds()
	perOpUs := func(coreSecs float64) float64 { return coreSecs * 1e6 / ops }
	lag, _ := quantile(sortedCopy(l.lag), 0.99)
	cps := float64(cp1.CPs - cp0.CPs)
	shed := float64(shed1 - shed0)
	r = &rep{
		seed:   seed,
		traced: traced,
		tally:  l.tally(win.coreSecs.Total()),
		sim: map[string]float64{
			"sim.events_per_op":              events / ops,
			"sim.cores_busy":                 win.coreSecs.Total() / secs,
			"client.cpu_us_per_op":           perOpUs(win.coreSecs.Client),
			"client.stall_us_per_op":         win.stallTime.Micros() / ops,
			"client.stalls_per_kop":          float64(win.stalls) * 1e3 / ops,
			"nvlog.admit_delay_us_per_op":    (delay1 - delay0).Micros() / ops,
			"nvlog.shed_ratio":               shed / (shed + ops),
			"waffinity.cpu_us_per_op":        perOpUs(win.coreSecs.Waffinity),
			"core.cleaner_cpu_us_per_op":     perOpUs(win.coreSecs.Cleaner),
			"core.infra_cpu_us_per_op":       perOpUs(win.coreSecs.Infra),
			"core.walloc_cores":              win.coreSecs.WriteAllocation() / secs,
			"core.get_waits_per_kop":         float64(in1.GetWaits-in0.GetWaits) * 1e3 / ops,
			"core.tetris_blocks_per_send":    ratio(float64(in1.TetrisBlocks-in0.TetrisBlocks), float64(in1.TetrisesSent-in0.TetrisesSent)),
			"core.cleaners_active":           float64(win.cleaners),
			"bitmap.vfill_words_per_vbucket": ratio(float64(in1.VFillWords-in0.VFillWords), float64(in1.VBucketsFilled-in0.VBucketsFilled)),
			"bitmap.fill_words_per_kblock":   ratio(float64(in1.FillWords-in0.FillWords)*1e3, float64(win.blocks)),
			"cp.per_s":                       cps / secs,
			"cp.avg_ms":                      ratio((cp1.TotalDuration - cp0.TotalDuration).Millis(), cps),
			"cp.clean_ms":                    ratio((cp1.CleanDuration - cp0.CleanDuration).Millis(), cps),
			"cp.meta_ms":                     ratio((cp1.MetaDuration - cp0.MetaDuration).Millis(), cps),
			"cp.back_to_back_ratio":          ratio(float64(cp1.BackToBack-cp0.BackToBack), cps),
			"cp.inodes_per_cp":               ratio(float64(cp1.InodesCleaned-cp0.InodesCleaned), cps),
			"aggregate.amap_writes_per_cp":   ratio(float64(cp1.AmapWrites-cp0.AmapWrites), cps),
			"raid.full_stripe_ratio":         ratio(win.fullStripeW, float64(win.blocks)),
			"raid.cpu_us_per_op":             perOpUs(win.coreSecs.RAID),
			"bcache.hit_ratio":               ratio(float64(bc1.Hits-bc0.Hits), float64(bc1.Hits-bc0.Hits+bc1.Misses-bc0.Misses)),
			"bcache.evictions_per_kop":       float64(bc1.Evictions-bc0.Evictions) * 1e3 / ops,
			"workload.gen_lag_p99_us":        float64(lag) / 1e3,
		},
		host: hostFigures{
			setup:   setup.Seconds(),
			window:  wall.Seconds(),
			ops:     ops,
			events:  events,
			alloc:   float64(m1.TotalAlloc - m0.TotalAlloc),
			mallocs: float64(m1.Mallocs - m0.Mallocs),
			gcs:     float64(m1.NumGC - m0.NumGC),
			peakMB:  float64(peak) / (1 << 20),
		},
	}
	if traced {
		q99us := func(name string) float64 { return float64(histWindow(h0, h1, name).Quantile(0.99)) / 1e3 }
		r.sim["sim.runq_wait_p99_us"] = q99us("sim.runq_wait")
		r.sim["waffinity.queue_wait_p99_us"] = q99us("waffinity.queue_wait")
		r.sim["storage.io_latency_p99_us"] = q99us("storage.io_latency:")
		for _, p := range cpPhases {
			h := histWindow(h0, h1, "cp.phase."+p)
			r.sim[phaseMetric(p)] = ratio(float64(h.Sum)/1e6, float64(h.Count))
		}
	}
	e2e, _, _ := r.tally.endToEnd()
	for k, v := range e2e {
		r.sim[k] = v
	}
	if profiled {
		if r.layers, err = profileLayers(prof.Name()); err != nil {
			return nil, err
		}
	}
	if err := l.balance(); err != nil {
		return nil, err
	}
	crashed = true
	if r.checked, err = crashCheck(sys, l.oracle); err != nil {
		return nil, err
	}
	return r, nil
}

// crashCheck is the durability gate: crash the system at the end of the
// window, recover it from media and NVRAM, require a clean fsck, and read
// back every acknowledged block. It returns how many blocks it verified.
func crashCheck(sys *wafl.System, o *oracle) (int, error) {
	sys.Crash()
	rec, err := sys.Recover()
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	defer rec.Shutdown()
	if rep := rec.Fsck(); !rep.OK() {
		return 0, fmt.Errorf("fsck after recovery: %s", rep)
	}
	return o.verify(rec)
}
