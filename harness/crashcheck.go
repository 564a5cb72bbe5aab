package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"wafl"
)

// The crash checker proves the §II-C contract: every acknowledged op is in
// NVRAM or in a committed CP, so it survives a crash, a second crash before
// recovery runs anything, and a quiesce, with fsck clean on every leg. One
// executor runs each client's op list and records every op into one model
// (crashmodel.go); one crash cycle checks it at a reproducible point.

// OpKind names one client operation.
type OpKind uint8

const (
	OpWrite       OpKind = iota // tagged write of file Ref
	OpBulk                      // bulk-class write of file Ref (may be shed)
	OpCreate                    // create the client's next file
	OpDelete                    // delete file Ref
	OpGetattr                   // getattr of file Ref
	OpSnapCreate                // snapshot the client's volume
	OpSnapDelete                // delete snapshot Ref
	OpCloneCreate               // clone snapshot Ref
	OpCloneWrite                // tagged write of the base file on clone Ref
	OpCloneSplit                // split clone Ref
	OpRestore                   // SnapRestore the client's volume to snapshot Ref
)

// Op is one client operation. Ref names an earlier result of the client: a
// file (0 is its base file, k its k-th create), or a snapshot or clone index.
// Ops on a clone whose create failed are skipped.
type Op struct {
	Kind OpKind
	Ref  int
	FBN  wafl.FBN
	N    int
}

// Mix parameterizes the seeded op generator (Mix.ops).
type Mix struct {
	Clients int  // per member; client i of member m works on volume m*Volumes + i%Volumes
	Ops     int  // per generated client
	Snaps   bool // every 25th op steps a snapshot cycle: create, [clone, split,] delete
	Clones  bool // the cycle clones and splits the snapshot; a quarter of writes go to the clone
	Bulk    bool // bulk writers on a small NVRAM log, admission tuned to shed
}

// Point is where a case crashes: Event events after setup, or the Phase-th
// CP boundary after client 0 starts op After. With Of or Shed set, a run
// without a crash resolves Event first: to the Event-th of Of even points
// across it, or to Shed after its first shed write.
type Point struct {
	Event        uint64
	Phase, After int
	Of           int
	Shed         wafl.Duration
}

// CrashCase is one reproducible crash point.
type CrashCase struct {
	Name       string // report group
	Seed       int64
	Members    int // cluster width (0 means 1)
	Victim     int // member crashed; -1 crashes the whole node
	ParallelCP bool
	Mix        Mix
	Script     [][]Op // literal op lists for the first clients; the rest are generated
	Point      Point
}

// Label names the case reproducibly.
func (c CrashCase) Label() string {
	at := fmt.Sprintf("event+%d", c.Point.Event)
	if c.Point.Phase > 0 {
		at = fmt.Sprintf("phase%d+op%d", c.Point.Phase, c.Point.After)
	}
	return fmt.Sprintf("%s/seed%d/parallel=%v/victim%d@%s", c.Name, c.Seed, c.ParallelCP, c.Victim, at)
}

const (
	baseBlocks   = 512 // each client's base file
	createBlocks = 64  // each created file
	maxRun       = 2 * wafl.Second
)

// config is the small server every case runs on, with torn writes,
// delayed completions, read errors and full-block payloads.
func (c CrashCase) config() wafl.Config {
	cfg := wafl.DefaultConfig()
	cfg.Cores = 8
	cfg.DataDrives = 3
	cfg.DriveBlocks = 16384
	cfg.AAStripes = 1024
	cfg.Volumes = 2
	cfg.VolumeBlocks = 1 << 15
	cfg.NVRAMHalfBytes = 512 << 10
	cfg.StripesPerVolume = 8
	cfg.RangesPerVBN = 4
	cfg.PayloadBytes = 4096
	cfg.Allocator.MaxCleaners = 4
	cfg.Allocator.InitialCleaners = 2
	cfg.Faults = wafl.FaultConfig{
		TornWriteEvery:  3,
		TornWritePrefix: -1,
		DelayWriteEvery: 7,
		DelayReadEvery:  5,
		Delay:           200 * wafl.Microsecond,
		ReadErrEvery:    9,
	}
	cfg.Seed = c.Seed
	cfg.Members = max(1, c.Members)
	cfg.Allocator.ParallelCP = c.ParallelCP
	if c.Mix.Clones || c.Script != nil {
		cfg.CloneSlots = 2
	}
	if c.Mix.Bulk {
		cfg.NVRAMHalfBytes = 256 << 10
		cfg.Admission = wafl.DefaultAdmission()
		cfg.Admission.MaxDelay = 2 * cfg.Admission.DelayStep
	}
	return cfg
}

// client is one executor: its ops and the results later ops refer to.
type client struct {
	vol, member int
	ops         []Op
	files       []uint64 // [0] the base file, then creates in order
	snaps       []uint64
	clones      []int // clone volumes, -1 for a failed create
	ctx         *wafl.ClientCtx
	done        bool
}

// crashRun is one built case.
type crashRun struct {
	c       CrashCase
	sys     *wafl.System
	m       *model
	clients []*client
	e0      uint64 // events at the end of setup
	started bool   // client 0 has started op Point.After
	shed0   uint64 // bulk writes shed by then
}

// build creates the system, the clients and their committed base files.
func (c CrashCase) build() (*crashRun, error) {
	cfg := c.config()
	sys, err := wafl.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	m := &model{vols: map[int]*volModel{}, used: map[[2]uint64]tagset{}, splits: map[int]bool{}}
	r := &crashRun{c: c, sys: sys, m: m}
	for k := 0; k < cfg.Members*c.Mix.Clients; k++ {
		mi := k / c.Mix.Clients
		i := k % c.Mix.Clients
		cl := &client{vol: mi*cfg.Volumes + i%cfg.Volumes, member: mi, ops: c.Mix.ops(c.Seed, k)}
		if k < len(c.Script) {
			cl.ops = c.Script[k]
		}
		cl.files = []uint64{sys.CreateFileDirect(cl.vol, baseBlocks)}
		if m.vols[cl.vol] == nil {
			m.vols[cl.vol] = newVol(&image{files: map[uint64]*file{}})
		}
		m.vols[cl.vol].live.files[cl.files[0]] = &file{exist: true, span: baseBlocks, blocks: map[wafl.FBN]tagset{}}
		r.clients = append(r.clients, cl)
	}
	if err := sys.Flush(); err != nil {
		sys.Shutdown()
		return nil, fmt.Errorf("setup flush: %w", err)
	}
	for k, cl := range r.clients {
		cl.ctx = sys.ClientThread(fmt.Sprintf("crash-%d", k), func(cc *wafl.ClientCtx) {
			for i := 0; i < len(cl.ops) && cc.Alive(); i++ {
				if k == 0 && i == c.Point.After {
					r.started = true
					r.shed0, _ = sys.AdmissionStats()
				}
				r.exec(cl, cc, cl.ops[i])
			}
			cl.done = true
		})
	}
	r.e0 = sys.Events()
	return r, nil
}

// exec issues one op, recording it into the model as issued and then as
// acknowledged; a crash kills the client inside the call, leaving it issued.
func (r *crashRun) exec(cl *client, cc *wafl.ClientCtx, op Op) {
	vol := cl.vol
	ino := cl.files[0]
	if op.Kind <= OpGetattr && op.Kind != OpCreate {
		ino = cl.files[op.Ref]
	}
	if op.Kind == OpCloneWrite || op.Kind == OpCloneSplit {
		if vol = cl.clones[op.Ref]; vol < 0 {
			return // its clone create failed
		}
	}
	v := r.m.vols[vol]
	switch op.Kind {
	case OpWrite, OpBulk, OpCloneWrite:
		w := r.m.issue(vol, ino, op.FBN, op.N, op.Kind == OpBulk)
		ok := true
		if op.Kind == OpBulk {
			_, ok = cc.WriteBulk(vol, ino, op.FBN, op.N)
		} else {
			cc.WriteTag(vol, ino, op.FBN, op.N, byte(w.tag))
		}
		w.ack(ok)
	case OpCreate:
		ino := cc.Create(vol, createBlocks)
		cl.files = append(cl.files, ino)
		v.live.files[ino] = &file{exist: true, span: createBlocks, blocks: map[wafl.FBN]tagset{}}
		v.spread(ino, 0, 0)
	case OpDelete:
		f := v.live.files[ino]
		f.absent = true
		v.spread(ino, 0, 0)
		f.exist = !cc.Delete(vol, ino)
	case OpGetattr:
		cc.Getattr(vol, ino)
	case OpSnapCreate:
		img := v.live.clone()
		v.shadows[img] = true
		id := cc.SnapCreate(vol)
		delete(v.shadows, img)
		img.exist = true
		v.snaps[id] = img
		cl.snaps = append(cl.snaps, id)
	case OpSnapDelete:
		s := v.snaps[cl.snaps[op.Ref]]
		s.absent = true
		s.exist = !cc.SnapDelete(vol, cl.snaps[op.Ref]) // false: a clone guards it
		s.absent = !s.exist
	case OpCloneCreate:
		r.m.binds++
		cv, ok := cc.CloneCreate(vol, cl.snaps[op.Ref])
		r.m.binds--
		if ok {
			r.m.vols[cv] = newVol(v.snaps[cl.snaps[op.Ref]].clone())
		}
		cl.clones = append(cl.clones, cv)
	case OpCloneSplit:
		r.m.splits[vol] = true
		cc.CloneSplit(vol)
	case OpRestore:
		v.restoring(cl.snaps[op.Ref])
		ok := cc.SnapRestore(vol, cl.snaps[op.Ref])
		delete(v.shadows, v.restore)
		if ok {
			v.live = v.restore
		}
		v.restore = nil
	}
}

// progress sums the ops of clients not on member skip, and whether they
// all finished.
func (r *crashRun) progress(skip int) (acked uint64, done bool) {
	done = true
	for _, cl := range r.clients {
		if cl.member != skip {
			acked += cl.ctx.Ops
			done = done && cl.done
		}
	}
	return acked, done
}

// advance runs steps until stop holds (at most 64 maxRun), reporting if it did.
func (r *crashRun) advance(step wafl.Duration, stop func() bool) bool {
	for i := 0; i < 64*int(maxRun/step); i++ {
		if stop() {
			return true
		}
		r.sys.Run(step)
	}
	return stop()
}

// baseline runs the case without a crash and returns the events its
// clients took and the event offset Point.Shed after its first shed write.
func (c CrashCase) baseline() (span, shed uint64, err error) {
	r, err := c.build()
	if err != nil {
		return 0, 0, err
	}
	defer r.sys.Shutdown()
	step := maxRun
	if c.Point.Shed > 0 {
		step = wafl.Millisecond
	}
	var shedAt wafl.Time
	done := r.advance(step, func() bool {
		if n, _ := r.sys.AdmissionStats(); n > 0 && shedAt == 0 {
			shedAt = r.sys.Now()
		} else if shedAt > 0 && shed == 0 && r.sys.Now() >= shedAt+wafl.Time(c.Point.Shed) {
			shed = r.sys.Events() - r.e0
		}
		_, done := r.progress(-1)
		return done
	})
	if !done || c.Point.Shed > 0 && shed == 0 {
		err = fmt.Errorf("%s: baseline did not finish, or never shed", c.Label())
	}
	return r.sys.Events() - r.e0, shed, err
}

// resolve turns Of and Shed points into events, running each distinct
// case's baseline once.
func resolve(cases []CrashCase) ([]CrashCase, error) {
	cases = slices.Clone(cases)
	spans := map[string][2]uint64{}
	for i := range cases {
		c := cases[i]
		p := &cases[i].Point
		key := fmt.Sprint(c.Seed, c.Members, c.ParallelCP, c.Mix, c.Script, p.Shed)
		if _, ok := spans[key]; !ok && (p.Of > 0 || p.Shed > 0) {
			span, shed, err := c.baseline()
			if err != nil {
				return nil, err
			}
			spans[key] = [2]uint64{span, shed}
		}
		if p.Shed > 0 {
			p.Event = spans[key][1]
		} else if p.Of > 0 {
			p.Event = (p.Event + 1) * spans[key][0] / uint64(p.Of+1)
		}
		p.Of = 0
		p.Shed = 0
	}
	return cases, nil
}

// parallel calls f(0..n-1) on GOMAXPROCS goroutines; cases share no state.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan bool, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- true
		go func(i int) {
			f(i)
			<-sem
			wg.Done()
		}(i)
	}
	wg.Wait()
}

// reach runs the case to its point and returns the boundary name of a
// phase point and whether the point was reached. Once the clients are done,
// tail CPs (split completion, final commits) get a few more segments.
func (r *crashRun) reach() (phase string, ok bool) {
	p := r.c.Point
	step := func() { r.sys.RunToEvent(r.e0+p.Event, maxRun) }
	if p.Phase > 0 {
		step = func() { r.sys.Run(maxRun) }
	}
	hits := 0
	r.sys.SetCPPhaseHook(func(name string) bool {
		if !r.started || p.Phase == 0 {
			return false
		}
		if hits++; hits != p.Phase {
			return false
		}
		phase = name
		r.sys.RequestHalt()
		return true
	})
	for i, tail := 0, 0; i < 64 && tail <= 4 && !r.sys.Halted(); i++ {
		step()
		if _, done := r.progress(-1); done {
			tail++
		}
	}
	return phase, r.sys.Halted()
}

// CaseResult is one case's outcome.
type CaseResult struct {
	Case    CrashCase // resolved: an event offset or a phase point
	Reached bool
	Phase   string // boundary name of a phase point
	Fails   []string
}

// halt builds the case and halts it at its point; a reached run is left
// halted for the crash cycle, any other is shut down.
func (c CrashCase) halt() (*crashRun, CaseResult) {
	res := CaseResult{Case: c}
	r, err := c.build()
	if err != nil {
		res.Fails = []string{err.Error()}
		return nil, res
	}
	if res.Phase, res.Reached = r.reach(); !res.Reached {
		r.sys.Shutdown()
		res.Fails = []string{"crash point not reached"}
		return nil, res
	}
	return r, res
}

// Run crashes the case at its point and drives the crash cycle.
func (c CrashCase) Run() CaseResult {
	r, res := c.halt()
	if r != nil {
		res.Fails = r.cycle()
	}
	return res
}

// cycle is the crash cycle on a halted system: crash (the whole node, or
// the victim member, whose survivors must then finish their work and make
// progress) → recover → verify + fsck → crash again before any event runs
// → recover → verify + fsck → quiesce → verify + fsck.
func (r *crashRun) cycle() (fails []string) {
	victim := r.c.Victim
	cur := r.sys
	defer func() { cur.Shutdown() }()
	var kill []*wafl.ClientCtx
	for _, cl := range r.clients {
		if cl.member == victim {
			kill = append(kill, cl.ctx)
		}
	}
	check := func(leg string) {
		for _, e := range r.m.verify(cur, leg == "quiesced") {
			fails = append(fails, leg+": "+e)
		}
		rep := cur.Fsck()
		if victim >= 0 && leg != "quiesced" {
			rep = cur.FsckMember(victim)
		}
		if !rep.OK() {
			fails = append(fails, fmt.Sprintf("%s: %s %v", leg, rep, rep.Errors))
		}
	}
	for _, leg := range []string{"recover", "double"} {
		var err error
		if victim < 0 {
			cur.Crash()
			cur, err = cur.Recover()
		} else {
			// Done survivors run nothing more, so the second crash still
			// comes before any event runs.
			before, finished := r.progress(victim)
			cur.CrashMember(victim, kill...)
			after := before
			done := r.advance(maxRun, func() bool {
				acked, done := r.progress(victim)
				after = acked
				return done
			})
			if !done || !finished && after <= before {
				fails = append(fails, fmt.Sprintf("outage: survivors acked %d -> %d ops, finished=%v", before, after, done))
			}
			err = cur.RecoverMember(victim)
		}
		if err != nil {
			cur = r.sys
			return append(fails, fmt.Sprintf("%s: recovery failed: %v", leg, err))
		}
		check(leg)
	}
	if err := cur.Quiesce(); err != nil {
		fails = append(fails, fmt.Sprintf("quiesce: %v", err))
	}
	check("quiesced")
	return fails
}

// CrashCheck resolves and runs every case and returns a one-row-per-case
// report and an error if a baseline or a case failed.
func CrashCheck(cases []CrashCase) (Table, error) {
	tab := Table{ID: "crashcheck", Title: "crash/recovery verification (§II-C contract)",
		Headers: []string{"case", "failures"}}
	cases, err := resolve(cases)
	if err != nil {
		return tab, err
	}
	results := make([]CaseResult, len(cases))
	parallel(len(cases), func(i int) { results[i] = cases[i].Run() })
	for _, r := range results {
		tab.Rows = append(tab.Rows, []string{r.Case.Label(), fmt.Sprint(len(r.Fails))})
		for _, f := range r.Fails[:min(5, len(r.Fails))] {
			tab.Notes = append(tab.Notes, fmt.Sprintf("FAIL %s: %s", r.Case.Label(), f))
		}
	}
	if len(tab.Notes) > 0 {
		err = fmt.Errorf("crash points failed")
	}
	return tab, err
}
