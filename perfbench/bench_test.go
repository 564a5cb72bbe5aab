package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"wafl"
)

// shrunk returns a copy of the named workload with a short warmup and
// window, so a whole run fits in a test.
func shrunk(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.warmup, c.window, c.slices = 50*wafl.Millisecond, 100*wafl.Millisecond, 4
	return &c
}

// TestDurabilityCheckRejectsFabricatedEntry shows the crash gate is not
// vacuous. It passes an oracle of prefilled blocks and acknowledged tagged
// overwrites, and fails one that also claims a block nobody wrote (a
// hole) or an overwrite the system never acknowledged (the block still
// holds the previous write's tag, as after a lost write).
func TestDurabilityCheckRejectsFabricatedEntry(t *testing.T) {
	for _, fabricate := range []string{"", "hole", "stale"} {
		sys, err := wafl.NewSystem(wafl.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		l := newLoad(shrunk(t, "seqwrite"))
		files, err := prefill(sys, l, 2, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite the first 32 blocks of each file, twice.
		wrote := false
		sys.ClientThread("overwrite", func(c *wafl.ClientCtx) {
			for range 2 {
				for _, f := range files {
					for fbn := wafl.FBN(0); fbn < 32; fbn += 8 {
						l.writeTagged(c, f, fbn, 8)
					}
				}
			}
			wrote = true
		})
		sys.Run(50 * wafl.Millisecond)
		if !wrote {
			t.Fatal("overwrites did not complete")
		}
		switch fabricate {
		case "hole":
			f := file{vol: 0, ino: sys.CreateFileDirect(0, 64)}
			if err := sys.Flush(); err != nil {
				t.Fatal(err)
			}
			l.oracle.prefilled(f, 5, 1)
		case "stale":
			l.oracle.done(l.oracle.start(files[1], 3, 1, true), true)
		}
		n, err := crashCheck(sys, l.oracle)
		switch {
		case fabricate != "" && (err == nil || !strings.Contains(err.Error(), "acknowledged write lost")):
			t.Fatalf("fabricated %s entry: durability check (%d blocks checked) returned %v", fabricate, n, err)
		case fabricate == "" && err != nil:
			t.Fatalf("durability check failed on written blocks: %v", err)
		case fabricate == "" && n != 128:
			t.Fatalf("checked %d blocks, want 128", n)
		}
	}
}

// TestOracleConcurrentWrites pins which tags the oracle accepts when writes
// to one block overlap: either of two overlapping writes may land last, a
// write that completed before another started may not, and a write still
// in flight at the crash may or may not have landed.
func TestOracleConcurrentWrites(t *testing.T) {
	o := newOracle()
	f := file{}
	o.prefilled(f, 0, 1)
	b := func() *blockState { return &o.blocks[f][0] }
	a := o.start(f, 0, 1, true)
	c := o.start(f, 0, 1, true)
	o.done(a, true) // completes while c is in flight
	o.done(c, true)
	if !b().holds(a.tag) || !b().holds(c.tag) || b().holds(0) {
		t.Fatalf("after overlapping a=%d, c=%d: acked %v", a.tag, c.tag, b().acked)
	}
	d := o.start(f, 0, 1, true)
	o.done(d, true)
	if b().holds(a.tag) || b().holds(c.tag) || !b().holds(d.tag) {
		t.Fatalf("after d=%d alone: acked %v", d.tag, b().acked)
	}
	shed := o.start(f, 0, 1, false)
	o.done(shed, false)
	e := o.start(f, 0, 1, true)
	if !b().holds(d.tag) || !b().holds(e.tag) || b().holds(0) {
		t.Fatalf("with e=%d in flight after a shed write: acked %v", e.tag, b().acked)
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for one section.
func benchmarkMetrics(t *testing.T, section string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var defs []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &defs); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

func sameMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	var diffs []string
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			diffs = append(diffs, "missing "+name)
		} else if m.Unit != unit {
			diffs = append(diffs, name+" unit "+m.Unit+" want "+unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, "undeclared "+name)
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Errorf("%s: %s", label, strings.Join(diffs, "; "))
	}
}

// TestRunPrintsEveryDeclaredMetric runs a shortened workload in both modes
// and checks the result line carries exactly the metrics BENCHMARK.json
// declares, with their units, and that the profile split leaves under 5%
// of samples unmapped.
func TestRunPrintsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	w := shrunk(t, "seqwrite")
	for _, trace := range []bool{false, true} {
		res, err := run(w, 1, 0, trace, io.Discard)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("trace=%v: result %+v", trace, res)
		}
		section, label := "end_to_end", "end-to-end"
		if trace {
			section, label = "per_layer", "per-layer"
		}
		sameMetrics(t, label, res.Metrics, benchmarkMetrics(t, section))
		if trace {
			if u := res.Metrics["host.self_frac.unmapped"].Value; u >= 0.05 {
				t.Errorf("%.1f%% of profile samples unmapped, want < 5%%", 100*u)
			}
		}
	}
}

// TestSampleLayer pins the profile-to-layer mapping on representative
// stacks (leaf first).
func TestSampleLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"wafl/internal/core.(*Infra).fill", "wafl/internal/sim.(*Thread).run"}, "core"},
		{[]string{"runtime.memmove", "wafl/internal/block.Copy", "wafl.(*ClientCtx).WriteTag"}, "block"},
		{[]string{"runtime.mallocgc", "wafl.(*System).payload"}, "runtime.alloc_gc"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.alloc_gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.futex", "runtime.notesleep"}, "runtime.sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "wafl/internal/sim.(*Scheduler).runThread"}, "runtime.sched"},
		{[]string{"sort.Slice", "main.sortedCopy"}, "workload"},
		{[]string{"wafl/internal/counters.(*Token).Add"}, "core"},
		{[]string{"wafl/internal/snap.Walk"}, "unmapped"},
		{[]string{"runtime.memmove"}, "unmapped"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
