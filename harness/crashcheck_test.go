package harness

import (
	"fmt"
	"strings"
	"testing"

	"wafl"
)

// runSmallCorpus runs the first case of every corpus group that keep
// selects, with shorter op lists, through the full crash cycle, and returns
// how many cases ran. The whole corpus is `make crashcheck`.
func runSmallCorpus(t *testing.T, keep func(CrashCase) bool) int {
	t.Helper()
	picked := map[string]bool{}
	var cases []CrashCase
	for _, c := range CrashCorpus() {
		if picked[c.Name] || !keep(c) {
			continue
		}
		picked[c.Name] = true
		if c.Mix.Ops > 60 {
			c.Mix.Ops = 60
		}
		cases = append(cases, c)
	}
	tab, err := CrashCheck(cases)
	if err != nil {
		t.Fatalf("%v\n%s", err, tab.String())
	}
	return len(tab.Rows)
}

// TestCrashSweepSmall runs one case of every single-node corpus group:
// event, cp-phase, overload-shed, clone-window and restore-shed.
func TestCrashSweepSmall(t *testing.T) {
	if n := runSmallCorpus(t, func(c CrashCase) bool { return c.Members <= 1 }); n != 5 {
		t.Fatalf("ran %d cases, want one per single-node group (5)", n)
	}
}

// TestClusterSweepSmall runs one case of every two-member corpus group:
// member-crash, member-split and cluster-snapclone.
func TestClusterSweepSmall(t *testing.T) {
	if n := runSmallCorpus(t, func(c CrashCase) bool { return c.Members > 1 }); n != 3 {
		t.Fatalf("ran %d cases, want one per cluster group (3)", n)
	}
}

// TestCrashCoverage probes the corpus at its crash points and checks it
// still covers what it must: all 9 CP boundary names under both CP modes; a
// clone bind, a split and a restore each in flight at a clone-window crash;
// every member crashed; and each combined case crashing with its features
// in flight. (The overload point's baseline fails if admission never sheds.)
func TestCrashCoverage(t *testing.T) {
	var cases []CrashCase
	victims := map[int]bool{}
	for _, c := range CrashCorpus() {
		switch c.Name {
		case "member-crash":
			victims[c.Victim] = true
		case "cp-phase", "clone-window", "member-split", "restore-shed":
			cases = append(cases, c)
		}
	}
	results := make([]inflight, len(cases))
	parallel(len(cases), func(i int) { results[i] = probe(cases[i]) })
	phases := map[bool]map[string]bool{true: {}, false: {}}
	var clone [3]bool
	for _, r := range results {
		switch c := r.Case; {
		case !r.Reached:
			t.Errorf("%s: crash point not reached", c.Label())
		case c.Name == "cp-phase":
			phases[c.ParallelCP][r.Phase] = true
		case c.Name == "clone-window":
			clone = [3]bool{clone[0] || r.bind, clone[1] || r.split, clone[2] || r.restore}
		case c.Name == "member-split" && !r.split:
			t.Errorf("%s: no clone split in flight at the crash", c.Label())
		case c.Name == "restore-shed" && !(r.restore && r.shed):
			t.Errorf("%s: restore in flight %v, shedding %v at the crash", c.Label(), r.restore, r.shed)
		}
	}
	for par, seen := range phases {
		if len(seen) != 9 {
			t.Errorf("cp-phase (parallel=%v) hit %d boundary names, want 9: %v", par, len(seen), seen)
		}
	}
	if clone != [3]bool{true, true, true} {
		t.Errorf("clone-window in flight (bind, split, restore) = %v, want all", clone)
	}
	if !victims[0] || !victims[1] {
		t.Errorf("member-crash victims %v, want both members", victims)
	}
}

// inflight is what the model and the system had in flight at a case's
// crash point: a clone bind, a split, a SnapRestore, and bulk writes shed
// since client 0 started op Point.After.
type inflight struct {
	CaseResult
	bind, split, restore, shed bool
}

// probe halts the case at its point and reads what was in flight there.
func probe(c CrashCase) inflight {
	r, res := c.halt()
	in := inflight{CaseResult: res}
	if r == nil {
		return in
	}
	defer r.sys.Shutdown()
	in.bind = r.m.binds > 0
	for cv := range r.m.splits {
		in.split = in.split || !r.sys.CloneSplitDone(cv)
	}
	for _, v := range r.m.vols {
		in.restore = in.restore || v.restore != nil
	}
	shed, _ := r.sys.AdmissionStats()
	in.shed = shed > r.shed0
	return in
}

// settled runs script as the only client to completion and quiesces, so
// the model is exact.
func settled(t *testing.T, script []Op) *crashRun {
	t.Helper()
	r, err := CrashCase{Seed: 1, Victim: -1, ParallelCP: true, Mix: Mix{Clients: 1}, Script: [][]Op{script}}.build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.sys.Shutdown)
	if !r.advance(maxRun, func() bool { _, done := r.progress(-1); return done }) {
		t.Fatal("script did not finish")
	}
	if err := r.sys.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if errs := r.m.verify(r.sys, true); len(errs) > 0 {
		t.Fatalf("settled state fails the oracle: %v", errs)
	}
	return r
}

// expectCaught asserts the oracle rejects the fabricated state on the
// quiesced leg, or with quiesced false on a leg before it.
func expectCaught(t *testing.T, r *crashRun, quiesced bool, want string) {
	t.Helper()
	errs := r.m.verify(r.sys, quiesced)
	if len(errs) == 0 || !strings.Contains(strings.Join(errs, "\n"), want) {
		t.Fatalf("oracle accepted a fabricated state (errors %q, want one containing %q)", errs, want)
	}
}

// Fabricated states the oracle must reject: a stale overwrite, an
// acknowledged restore, an acknowledged clone, a hole, a stale write acked
// after the restore whose gate held it, and, with a restore in flight, a
// stale block on which both candidate states agree. The stale overwrite
// sits on a block whose older content is the untagged pattern, so a tag-0
// check (VerifyAgainst) passes it.
func TestOracleCatchesFabrications(t *testing.T) {
	script := []Op{{Kind: OpBulk, N: 8}, {Kind: OpWrite, FBN: 8, N: 8}, {Kind: OpSnapCreate},
		{Kind: OpWrite, FBN: 8, N: 8}}
	t.Run("stale-overwrite", func(t *testing.T) {
		r := settled(t, script)
		ino := r.clients[0].files[0]
		if err := r.sys.VerifyAgainst(0, ino, 3); err != nil {
			t.Fatalf("tag-0 check should pass the older content: %v", err)
		}
		r.m.vols[0].live.files[ino].blocks[3] = one(9)
		expectCaught(t, r, true, "fbn 3: holds [0], want [9]")
	})
	t.Run("acked-restore", func(t *testing.T) {
		r := settled(t, script)
		v := r.m.vols[0]
		v.live = v.snaps[r.clients[0].snaps[0]].clone()
		expectCaught(t, r, true, "fbn 8: holds")
	})
	t.Run("acked-clone", func(t *testing.T) {
		r := settled(t, script)
		v := r.m.vols[0]
		r.m.vols[2] = newVol(v.snaps[r.clients[0].snaps[0]].clone())
		expectCaught(t, r, true, "vol 2: ino")
	})
	t.Run("hole", func(t *testing.T) {
		r := settled(t, script)
		r.m.vols[0].live.files[r.clients[0].files[0]].blocks[100] = one(4)
		expectCaught(t, r, true, "fbn 100: holds [hole], want [4]")
	})
	t.Run("write-acked-after-restore", func(t *testing.T) {
		r := settled(t, script)
		v := r.m.vols[0]
		ino := r.clients[0].files[0]
		stored := v.live.files[ino].get(8)
		v.restoring(r.clients[0].snaps[0])
		w := r.m.issue(0, ino, 8, 8, false) // held by the restore's gate
		v.live = v.restore                  // the restore is acknowledged, then the write
		v.restore = nil
		w.ack(true)
		expectCaught(t, r, true, fmt.Sprintf("fbn 8: holds %v, want [%d]", stored, w.tag))
	})
	t.Run("restore-in-flight", func(t *testing.T) {
		r := settled(t, script)
		v := r.m.vols[0]
		v.restoring(r.clients[0].snaps[0])
		ino := r.clients[0].files[0]
		v.live.files[ino].blocks[3] = one(9)
		v.restore.files[ino].blocks[3] = one(9)
		expectCaught(t, r, false, "fbn 3: holds [0], want [9]")
	})
}

// TestWriteTagIsNew checks the tag rule on overlapping two-block writes
// whose blocks take different numbers of writes, with snapshots held: a
// tag is never one a covered block has taken until the blocks have taken
// every tag, and never a value any image may hold there.
func TestWriteTagIsNew(t *testing.T) {
	f := &file{exist: true, span: 8, blocks: map[wafl.FBN]tagset{}}
	v := newVol(&image{files: map[uint64]*file{1: f}})
	m := &model{vols: map[int]*volModel{0: v}, used: map[[2]uint64]tagset{}}
	taken := map[wafl.FBN]tagset{}
	for i := 0; i < 400; i++ {
		fbn := wafl.FBN(i%5) / 2 // covers blocks 0-1, 0-1, 1-2, 1-2, 2-3
		held := v.held(1, fbn) | v.held(1, fbn+1)
		used := taken[fbn] | taken[fbn+1]
		w := m.issue(0, 1, fbn, 2, false)
		if w.tag < 1 || w.tag > maxTag || held&one(w.tag) != 0 ||
			used|one(0)|one(hole)|one(torn) != ^tagset(0) && used&one(w.tag) != 0 {
			t.Fatalf("write %d at fbn %d took tag %d: held %v, taken %v", i, fbn, w.tag, held, used)
		}
		taken[fbn] |= one(w.tag)
		taken[fbn+1] |= one(w.tag)
		w.ack(true)
		if i%40 == 0 {
			v.snaps[uint64(i)] = v.live.clone()
		}
	}
}

// FuzzCrashCase turns fuzz input into a crash case: a seed, mix bits
// (snapshots, clones, bulk writers), a shape (members, victim, CP mode, and
// the corpus's client count and op-list length or a smaller one) and a
// point (a CP boundary or an event offset). The seed inputs are corpus
// cases. Plain `go test` runs them; `go test -fuzz=FuzzCrashCase ./harness`
// searches, and the fuzzer minimizes a failing input and saves it under
// testdata/fuzz, where it replays as a test.
func FuzzCrashCase(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(16), uint32(2*4+1))  // cp-phase, boundary 5
	f.Add(int64(2), uint8(0), uint8(23), uint32(2*5751)) // member-crash, member 1
	f.Add(int64(1), uint8(4), uint8(16), uint32(2*8786)) // overload-shed
	f.Fuzz(func(t *testing.T, seed int64, mix, shape uint8, point uint32) {
		c := CrashCase{Name: "fuzz", Seed: seed, Members: 1 + int(shape&1), Victim: -1, ParallelCP: shape&8 == 0,
			Mix: Mix{Clients: 2, Ops: 60, Snaps: mix&1 != 0, Clones: mix&2 != 0, Bulk: mix&4 != 0}}
		if c.Members > 1 && shape&2 != 0 {
			c.Victim = int(shape>>2) & 1
		}
		if shape&16 != 0 {
			c.Mix.Clients = 5 - c.Members
			c.Mix.Ops = 250 - 50*c.Members
		}
		if c.Point.Event = uint64(point>>1) % (1 << 15); point&1 == 1 {
			c.Point = Point{Phase: 1 + int(point>>1)%27}
		}
		res := c.Run()
		if !res.Reached {
			t.Skip("the workload ends before the crash point")
		}
		if len(res.Fails) > 0 {
			t.Fatalf("%s failed; replay with\n\tharness.%#v.Run()\n%s", c.Label(), c, strings.Join(res.Fails, "\n"))
		}
	})
}
