package harness

import (
	"math/rand"
	"slices"

	"wafl"
)

// ops generates client k's op list: 70% base-file writes of 1-4 blocks,
// creates (each written at once), deletes of the client's oldest create
// and getattrs, with every 25th op a step of the snapshot cycle.
func (mx Mix) ops(seed int64, k int) (ops []Op) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
	var cycle []OpKind
	if mx.Snaps {
		cycle = []OpKind{OpSnapCreate, OpSnapDelete}
	}
	if mx.Snaps && mx.Clones {
		cycle = []OpKind{OpSnapCreate, OpCloneCreate, OpCloneSplit, OpSnapDelete}
	}
	var creates, deletes, snaps, clones int
	for len(ops) < mx.Ops {
		op := Op{Kind: OpGetattr}
		switch r := rng.Intn(10); {
		case len(cycle) > 0 && len(ops)%25 == 24:
			op = Op{Kind: cycle[0], Ref: snaps - 1}
			cycle = append(cycle[1:], cycle[0])
			switch op.Kind {
			case OpSnapCreate:
				snaps++
			case OpCloneCreate:
				clones++
			case OpCloneSplit:
				op.Ref = clones - 1
			}
		case mx.Bulk:
			op = Op{Kind: OpBulk, FBN: wafl.FBN(rng.Intn(baseBlocks - 16)), N: 16}
			if r >= 8 {
				op.Kind = OpWrite
				op.N = 2
			}
		case r < 7:
			op = Op{Kind: OpWrite, FBN: wafl.FBN(rng.Intn(baseBlocks - 4)), N: 1 + rng.Intn(4)}
			if mx.Clones && clones > 0 && rng.Intn(4) == 0 {
				op.Kind = OpCloneWrite
				op.Ref = clones - 1
			}
		case r == 7:
			creates++
			ops = append(ops, Op{Kind: OpCreate})
			op = Op{Kind: OpWrite, Ref: creates, N: 1}
		case r == 8 && deletes < creates:
			deletes++
			op = Op{Kind: OpDelete, Ref: deletes}
		}
		ops = append(ops, op)
	}
	return ops
}

// span returns n ops of kind over blocks blocks each, at fbn + i*stride
// wrapped inside the base file.
func span(kind OpKind, fbn, n, stride, blocks int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: kind, FBN: wafl.FBN((fbn + i*stride) % (baseBlocks - blocks)), N: blocks}
	}
	return ops
}

// The clone window writes 64 image blocks, snapshots them and churns 32
// more; from op windowOpen it clones the snapshot, writes 16 clone blocks,
// splits (op windowSplit), restores the snapshot and writes 8 blocks more.
// Its spans are disjoint, so each block's tag names the step that wrote it.
// restoreUnderShed snapshots the volume, hammers it with bulk writes and
// restores the snapshot (op restoreAt) while they are being shed.
const windowOpen, windowSplit, restoreAt = 34, 51, 41

var (
	cloneWindow = slices.Concat([]Op{{Kind: OpWrite, N: 64}, {Kind: OpSnapCreate}}, span(OpWrite, 64, 32, 1, 1),
		[]Op{{Kind: OpCloneCreate}}, span(OpCloneWrite, 96, 16, 1, 1), []Op{{Kind: OpCloneSplit}},
		[]Op{{Kind: OpRestore}}, span(OpWrite, 128, 8, 1, 1))
	splitWindow      = slices.Concat(cloneWindow[:windowSplit+1], span(OpWrite, 128, 8, 1, 1))
	restoreUnderShed = slices.Concat([]Op{{Kind: OpSnapCreate}}, span(OpBulk, 0, restoreAt-1, 37, 16),
		[]Op{{Kind: OpRestore}}, span(OpBulk, 7, 40, 37, 16))
)

// CrashCorpus is the fixed corpus `waflbench -crashcheck` runs: 8 event
// points × seeds 1, 2 × both CP modes; CP boundaries 1-9 × both CP modes;
// 10 ms into shedding; 18 boundaries in the clone window; 6 member crashes ×
// 2 seeds; and combined features: a member crash mid clone split, SnapRestore
// in flight while shedding, and snapshots and clones on 2 members.
func CrashCorpus() (cs []CrashCase) {
	add := func(c CrashCase, points ...Point) {
		for _, p := range points {
			c.Point = p
			cs = append(cs, c)
		}
	}
	events := func(n int) (ps []Point) {
		for i := 0; i < n; i++ {
			ps = append(ps, Point{Event: uint64(i), Of: n})
		}
		return ps
	}
	phases := func(after, from, to, step int) (ps []Point) {
		for j := from; j <= to; j += step {
			ps = append(ps, Point{Phase: j, After: after})
		}
		return ps
	}
	sweep := Mix{Clients: 4, Ops: 200, Snaps: true}
	bulk := Mix{Clients: 4, Ops: 200, Bulk: true}
	for _, par := range []bool{true, false} {
		add(CrashCase{Name: "event", Seed: 1, Victim: -1, ParallelCP: par, Mix: sweep}, events(8)...)
		add(CrashCase{Name: "event", Seed: 2, Victim: -1, ParallelCP: par, Mix: sweep}, events(8)...)
		add(CrashCase{Name: "cp-phase", Seed: 1, Victim: -1, ParallelCP: par, Mix: sweep}, phases(0, 1, 9, 1)...)
	}
	add(CrashCase{Name: "overload-shed", Seed: 1, Victim: -1, ParallelCP: true, Mix: bulk},
		Point{Shed: 10 * wafl.Millisecond})
	add(CrashCase{Name: "clone-window", Seed: 1, Victim: -1, ParallelCP: true, Mix: Mix{Clients: 1},
		Script: [][]Op{cloneWindow}}, phases(windowOpen, 1, 18, 1)...)
	for _, seed := range []int64{1, 2} {
		for i, p := range events(6) {
			add(CrashCase{Name: "member-crash", Seed: seed, Members: 2, Victim: i % 2, ParallelCP: true,
				Mix: Mix{Clients: 3, Ops: 150}}, p)
		}
	}
	add(CrashCase{Name: "member-split", Seed: 1, Members: 2, Victim: 0, ParallelCP: true,
		Mix: Mix{Clients: 2, Ops: 150}, Script: [][]Op{splitWindow}}, phases(windowSplit, 1, 3, 1)...)
	add(CrashCase{Name: "restore-shed", Seed: 1, Victim: -1, ParallelCP: true, Mix: bulk,
		Script: [][]Op{restoreUnderShed}}, phases(restoreAt, 1, 7, 3)...)
	add(CrashCase{Name: "cluster-snapclone", Seed: 3, Members: 2, Victim: -1, ParallelCP: true,
		Mix: Mix{Clients: 2, Ops: 150, Snaps: true, Clones: true}}, events(4)...)
	return cs
}
