package main

import (
	"fmt"
	"math"
	"math/rand"

	"wafl"
	"wafl/harness"
)

// opBlocksSmall is the 8 KiB op size of randrw and openmix; seqwrite
// streams 32 KiB (8-block) writes.
const (
	opBlocksSmall = 2
	opBlocksSeq   = 8
)

// sloLimit is openmix's latency limit on latency-sensitive sojourn time,
// and the limit closed-loop ops are held to for sim_slo_rate_ops_s.
const sloLimit = 2 * wafl.Millisecond

// sloMissShare is the share of a step's arrivals that may be refused or
// complete later than sloLimit for the step to pass.
const sloMissShare = 0.01

// workload is one named benchmark input: the system it runs on, how long
// it warms up and measures (simulated time), and how it creates its files
// and attaches its generator.
type workload struct {
	name   string
	config func(seed int64) wafl.Config
	warmup wafl.Duration
	window wafl.Duration
	slices int // the window runs in this many equal slices; heap is sampled between them
	attach func(sys *wafl.System, seed int64, w *workload) (*load, error)

	// steps are openmix's arrival-rate steps, which run back to back and
	// make up the window, one slice each; warmup runs at steps[0].rate.
	// Sojourn latency is taken over arrivals in the first latSteps steps,
	// below the knee; the steps after them straddle the knee for the SLO
	// rate.
	steps    []step
	latSteps int
}

// step is one arrival rate (ops per simulated second) held for dur.
type step struct {
	rate float64
	dur  wafl.Duration
}

// openSteps are openmix's steps. The knee, where a step stops passing the
// SLO, lies between 40k and 41k ops/s on DefaultConfig. The probe steps
// are finest around it and reach 20% either side.
var openSteps = []step{
	{24000, 300 * wafl.Millisecond},
	{28000, 300 * wafl.Millisecond},
	{32000, 300 * wafl.Millisecond},
	{36000, 100 * wafl.Millisecond},
	{38000, 100 * wafl.Millisecond},
	{39000, 100 * wafl.Millisecond},
	{40000, 100 * wafl.Millisecond},
	{41000, 100 * wafl.Millisecond},
	{42000, 100 * wafl.Millisecond},
	{44000, 100 * wafl.Millisecond},
	{48000, 100 * wafl.Millisecond},
}

// sliceDurs returns the durations the window runs in: one per step, or
// w.slices equal shares.
func (w *workload) sliceDurs() []wafl.Duration {
	var d []wafl.Duration
	for _, s := range w.steps {
		d = append(d, s.dur)
	}
	for range w.slices {
		d = append(d, w.window/wafl.Duration(w.slices))
	}
	return d
}

func stepsWindow(steps []step) wafl.Duration {
	var d wafl.Duration
	for _, s := range steps {
		d += s.dur
	}
	return d
}

// workloads lists the benchmark's workloads in the order they run.
var workloads = []*workload{
	{
		name:   "seqwrite",
		config: seqwriteConfig,
		warmup: 100 * wafl.Millisecond,
		window: 300 * wafl.Millisecond,
		slices: 6,
		attach: attachSeqwrite,
	},
	{
		name:   "randrw",
		config: randrwConfig,
		warmup: 100 * wafl.Millisecond,
		window: 200 * wafl.Millisecond,
		slices: 8,
		attach: attachRandrw,
	},
	{
		name:     "openmix",
		config:   openmixConfig,
		warmup:   60 * wafl.Millisecond,
		window:   stepsWindow(openSteps),
		attach:   attachOpenmix,
		steps:    openSteps,
		latSteps: 3,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Closed-loop shape shared by seqwrite and randrw.
const (
	closedClients = 56
	closedVolumes = 4
	// seqFileBlocks is each seqwrite client's file (4 MiB): the stream
	// wraps several times per run, so every write is an overwrite.
	seqFileBlocks = 1024
	// randFileBlocks is each randrw client's file (4 MiB); 56 of them make
	// a 57344-block (224 MiB) working set.
	randFileBlocks = 1024
	randWritePct   = 80
)

// Open-loop shape (the harness.OverloadConfig study's).
const (
	openStreams     = 2000
	openFileBlocks  = 64 // 2000 x 64 = 128000 blocks, 16x the 8192-block cache
	openVolumes     = 4
	openLSWorkers   = 8
	openBulkWorkers = 6
	openReadPct     = 30
	openBulkPct     = 60 // share of writes that are bulk-class
)

func seqwriteConfig(seed int64) wafl.Config {
	cfg := wafl.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

func randrwConfig(seed int64) wafl.Config {
	cfg := wafl.DefaultConfig()
	cfg.Seed = seed
	// Twice the working set: every read hits once a block is resident.
	cfg.BCacheBlocks = 2 * closedClients * randFileBlocks
	return cfg
}

func openmixConfig(seed int64) wafl.Config {
	cfg := harness.OverloadConfig(wafl.DefaultConfig())
	cfg.Seed = seed
	cfg.Admission.Enabled = true
	return cfg
}

// file is one benchmark file: its global volume and handle.
type file struct {
	vol int
	ino uint64
}

// prefill creates n files of size blocks striped over vols volumes, writes
// every block directly with tag 0, and flushes so the files are on media
// before any client op is logged. Every prefilled block enters the oracle.
func prefill(sys *wafl.System, l *load, n, vols int, size uint64) ([]file, error) {
	files := make([]file, n)
	for i := range files {
		f := file{vol: i % vols}
		f.ino = sys.CreateFileDirect(f.vol, size)
		sys.Prewrite(f.vol, f.ino, size, false)
		l.oracle.prefilled(f, 0, int(size))
		files[i] = f
	}
	if err := sys.Flush(); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	return files, nil
}

// writeTagged issues one tagged write of n blocks and records it in the
// oracle.
func (l *load) writeTagged(c *wafl.ClientCtx, f file, fbn wafl.FBN, n int) wafl.Duration {
	wr := l.oracle.start(f, fbn, n, true)
	lat := c.WriteTag(f.vol, f.ino, fbn, n, wr.tag)
	l.oracle.done(wr, true)
	return lat
}

// clientRand derives client i's private generator from the run seed, so
// inputs depend only on --seed and not on simulation interleaving.
func clientRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 1))
}

// clientStagger is a closed-loop client's seeded start delay: clients
// arrive spread over the first millisecond instead of in lockstep.
func clientStagger(rng *rand.Rand) wafl.Duration {
	return wafl.Duration(rng.Int63n(int64(wafl.Millisecond)))
}

func attachSeqwrite(sys *wafl.System, seed int64, w *workload) (*load, error) {
	l := newLoad(w)
	files, err := prefill(sys, l, closedClients, closedVolumes, seqFileBlocks)
	if err != nil {
		return nil, err
	}
	for i, f := range files {
		// Each stream starts at a seeded offset and time.
		rng := clientRand(seed, i)
		start := wafl.FBN(rng.Intn(seqFileBlocks/opBlocksSeq) * opBlocksSeq)
		stagger := clientStagger(rng)
		sys.ClientThread(fmt.Sprintf("seqwrite-%d", i), func(c *wafl.ClientCtx) {
			c.Think(stagger)
			for fbn := start; c.Alive(); {
				l.closedDone(l.writeTagged(c, f, fbn, opBlocksSeq))
				fbn += opBlocksSeq
				if fbn+opBlocksSeq > seqFileBlocks {
					fbn = 0
				}
			}
		})
	}
	return l, nil
}

func attachRandrw(sys *wafl.System, seed int64, w *workload) (*load, error) {
	l := newLoad(w)
	files := make([]file, closedClients)
	for i := range files {
		files[i] = file{vol: i % closedVolumes}
		files[i].ino = sys.CreateFileDirect(files[i].vol, randFileBlocks)
	}
	if err := sys.Flush(); err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	// Prefill through the client path, 32 KiB at a time in a seeded
	// shuffled order: physical placement scatters, and every block ends up
	// resident in the buffer cache, so measured reads all hit.
	filled := 0
	for i, f := range files {
		rng := clientRand(seed, i)
		sys.ClientThread(fmt.Sprintf("randrw-fill-%d", i), func(c *wafl.ClientCtx) {
			for _, k := range rng.Perm(randFileBlocks / opBlocksSeq) {
				l.writeTagged(c, f, wafl.FBN(k*opBlocksSeq), opBlocksSeq)
			}
			filled++
		})
	}
	for t := 0; filled < len(files); t++ {
		if t == 1000 {
			return nil, fmt.Errorf("prefill: %d of %d files after 10 s", filled, len(files))
		}
		sys.Run(10 * wafl.Millisecond)
	}
	if err := sys.Flush(); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	for i, f := range files {
		rng := clientRand(seed, closedClients+i)
		sys.ClientThread(fmt.Sprintf("randrw-%d", i), func(c *wafl.ClientCtx) {
			c.Think(clientStagger(rng))
			for c.Alive() {
				fbn := wafl.FBN(rng.Intn(randFileBlocks - opBlocksSmall + 1))
				if rng.Intn(100) < randWritePct {
					l.closedDone(l.writeTagged(c, f, fbn, opBlocksSmall))
				} else {
					l.closedDone(c.Read(f.vol, f.ino, fbn, opBlocksSmall))
				}
			}
		})
	}
	return l, nil
}

// openOp is one arrived operation waiting for (or in) service.
type openOp struct {
	f    file
	fbn  wafl.FBN
	due  wafl.Time // scheduled arrival: sojourn is measured from here
	read bool
	bulk bool
}

// openQueue is one class's FIFO of arrived operations.
type openQueue struct {
	ops   []openOp
	ready *wafl.WaitQueue
}

func attachOpenmix(sys *wafl.System, seed int64, w *workload) (*load, error) {
	l := newLoad(w)
	files, err := prefill(sys, l, openStreams, openVolumes, openFileBlocks)
	if err != nil {
		return nil, err
	}
	ls := &openQueue{ready: sys.NewWaitQueue("openmix-ls")}
	bulk := &openQueue{ready: sys.NewWaitQueue("openmix-bulk")}
	rng := clientRand(seed, -1)

	// One generator thread produces the merged Poisson arrivals of all
	// streams. Due times advance by exponential gaps at the current step's
	// rate, independent of when the thread actually wakes; the difference
	// is the generator's lag.
	sys.ClientThread("openmix-gen", func(c *wafl.ClientCtx) {
		due := c.Now()
		for c.Alive() {
			rate := w.steps[0].rate
			if k := l.stepOf(due); k >= 0 {
				rate = w.steps[k].rate
			}
			due += wafl.Time(math.Ceil(rng.ExpFloat64() / rate * float64(wafl.Second)))
			if now := c.Now(); due > now {
				c.Think(wafl.Duration(due - now))
			}
			if !c.Alive() {
				break
			}
			op := openOp{
				f:    files[rng.Intn(openStreams)],
				fbn:  wafl.FBN(rng.Intn(openFileBlocks - opBlocksSmall + 1)),
				due:  due,
				read: rng.Intn(100) < openReadPct,
			}
			if !op.read {
				op.bulk = rng.Intn(100) < openBulkPct
			}
			q := ls
			if op.bulk {
				q = bulk
			}
			l.arrived(c, op)
			q.ops = append(q.ops, op)
			q.ready.Signal()
		}
		ls.ready.Broadcast()
		bulk.ready.Broadcast()
	})

	// inflight[i] is the op worker i is serving, nil when idle.
	inflight := make([]*openOp, openLSWorkers+openBulkWorkers)
	worker := func(i int, q *openQueue) func(*wafl.ClientCtx) {
		return func(c *wafl.ClientCtx) {
			for c.Alive() {
				if len(q.ops) == 0 {
					c.Wait(q.ready)
					continue
				}
				op := q.ops[0]
				q.ops = q.ops[1:]
				inflight[i] = &op
				admitted := true
				switch {
				case op.read:
					c.Read(op.f.vol, op.f.ino, op.fbn, opBlocksSmall)
				case op.bulk:
					wr := l.oracle.start(op.f, op.fbn, opBlocksSmall, false)
					_, admitted = c.WriteBulk(op.f.vol, op.f.ino, op.fbn, opBlocksSmall)
					l.oracle.done(wr, admitted)
				default:
					l.writeTagged(c, op.f, op.fbn, opBlocksSmall)
				}
				inflight[i] = nil
				l.openDone(c, op, admitted)
			}
		}
	}
	for i := 0; i < openLSWorkers; i++ {
		sys.ClientThread(fmt.Sprintf("openmix-ls-%d", i), worker(i, ls))
	}
	for i := openLSWorkers; i < len(inflight); i++ {
		sys.ClientThread(fmt.Sprintf("openmix-bulk-%d", i-openLSWorkers), worker(i, bulk))
	}
	l.pending = func() int {
		n := len(ls.ops) + len(bulk.ops)
		for _, op := range inflight {
			if op != nil {
				n++
			}
		}
		return n
	}
	l.lsQueued = func(yield func(openOp)) {
		for _, op := range ls.ops {
			yield(op)
		}
		for _, op := range inflight[:openLSWorkers] {
			if op != nil {
				yield(*op)
			}
		}
	}
	return l, nil
}
