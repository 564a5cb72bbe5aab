package main

import (
	"fmt"
	"math"
	"sort"

	"wafl"
)

// load is one run's generator bookkeeping: the oracle of acknowledged
// writes, and the measured window's samples and counts. The simulation
// runs one simulated thread at a time, so generators update it without
// locks; the host reads it only between Run calls.
type load struct {
	w      *workload
	oracle *oracle

	measuring        bool
	winStart, winEnd wafl.Time

	// Window figures. Closed loop: ops completing in the window. Open loop:
	// lat, attempted and refused cover ops that arrived (were due) in the
	// window; completed counts completions in the window.
	lat         []int64 // per-op latency or sojourn, ns
	attempted   uint64
	completed   uint64
	refused     uint64 // shed by admission control
	withinLimit uint64 // closed loop: completed ops with latency <= sloLimit
	lag         []int64
	steps       []stepStats

	// Open-loop totals since attach, for the balance check. The queues are
	// unbounded, so no arrival is ever dropped.
	arrivals, done, shed uint64
	pending              func() int               // queued plus in service
	lsQueued             func(yield func(openOp)) // latency-sensitive ops queued or in service
}

// stepStats is one openmix arrival-rate step.
type stepStats struct {
	rate         float64 // offered ops per simulated second
	secs         float64 // simulated length
	arrivals     uint64
	refused      uint64 // shed by admission control
	lsLate       uint64 // latency-sensitive ops past sloLimit
	pendingStart int
	pendingEnd   int
}

func newLoad(w *workload) *load {
	l := &load{w: w, oracle: newOracle(), steps: make([]stepStats, len(w.steps))}
	for k, s := range w.steps {
		l.steps[k].rate, l.steps[k].secs = s.rate, s.dur.Seconds()
	}
	return l
}

// begin opens the measured window at simulated time now.
func (l *load) begin(now wafl.Time) {
	l.measuring = true
	l.winStart, l.winEnd = now, now+wafl.Time(l.w.window)
	if len(l.steps) > 0 {
		l.steps[0].pendingStart = l.pending()
	}
}

// stepOf returns the openmix step whose part of the window holds t, or -1
// outside the window (and before it opens).
func (l *load) stepOf(t wafl.Time) int {
	if t <= l.winStart || t > l.winEnd {
		return -1
	}
	end := l.winStart
	for k, s := range l.w.steps {
		if end += wafl.Time(s.dur); t <= end {
			return k
		}
	}
	return -1
}

// stepBoundary records the backlog at the end of step k (and the start of
// step k+1).
func (l *load) stepBoundary(k int) {
	p := l.pending()
	l.steps[k].pendingEnd = p
	if k+1 < len(l.steps) {
		l.steps[k+1].pendingStart = p
	}
}

// end closes the window: latency-sensitive ops still queued or in service
// that are already past the limit count as late.
func (l *load) end(now wafl.Time) {
	l.measuring = false
	if l.lsQueued == nil {
		return
	}
	l.lsQueued(func(op openOp) {
		if k := l.stepOf(op.due); k >= 0 && now-op.due > wafl.Time(sloLimit) {
			l.steps[k].lsLate++
		}
	})
}

// closedDone records one completed closed-loop op.
func (l *load) closedDone(lat wafl.Duration) {
	if !l.measuring {
		return
	}
	l.lat = append(l.lat, int64(lat))
	l.attempted++
	l.completed++
	if lat <= sloLimit {
		l.withinLimit++
	}
}

// arrived records one open-loop arrival as it is queued.
func (l *load) arrived(c *wafl.ClientCtx, op openOp) {
	l.arrivals++
	if k := l.stepOf(op.due); k >= 0 {
		l.attempted++
		l.steps[k].arrivals++
		l.lag = append(l.lag, int64(c.Now()-op.due))
	}
}

// openDone records one open-loop op leaving service.
func (l *load) openDone(c *wafl.ClientCtx, op openOp, admitted bool) {
	if !admitted {
		l.shed++
	} else {
		l.done++
		if l.measuring {
			l.completed++
		}
	}
	k := l.stepOf(op.due)
	if k < 0 {
		return
	}
	if !admitted {
		l.refused++
		l.steps[k].refused++
		return
	}
	sojourn := int64(c.Now() - op.due)
	if k < l.w.latSteps {
		l.lat = append(l.lat, sojourn)
	}
	if !op.bulk && sojourn > int64(sloLimit) {
		l.steps[k].lsLate++
	}
}

// balance checks that every open-loop arrival is accounted for.
func (l *load) balance() error {
	if l.pending == nil {
		return nil
	}
	if got := l.done + l.shed + uint64(l.pending()); got != l.arrivals {
		return fmt.Errorf("open loop does not balance: arrivals %d != completed %d + shed %d + in flight %d",
			l.arrivals, l.done, l.shed, l.pending())
	}
	return nil
}

// tally is a rep's simulated window figures in poolable form: a run's
// end-to-end metrics pool the tallies of its sub-seeds.
type tally struct {
	secs                                 float64 // simulated window length
	ops, attempted, refused, withinLimit uint64
	coreSecs                             float64
	lat                                  []int64
	steps                                []stepStats
}

func (l *load) tally(coreSecs float64) *tally {
	return &tally{
		secs: l.w.window.Seconds(), ops: l.completed, attempted: l.attempted, refused: l.refused,
		withinLimit: l.withinLimit, coreSecs: coreSecs, lat: l.lat,
		steps: append([]stepStats(nil), l.steps...),
	}
}

// pool sums tallies.
func pool(ts []*tally) *tally {
	p := &tally{steps: make([]stepStats, len(ts[0].steps))}
	for _, t := range ts {
		p.secs += t.secs
		p.ops += t.ops
		p.attempted += t.attempted
		p.refused += t.refused
		p.withinLimit += t.withinLimit
		p.coreSecs += t.coreSecs
		p.lat = append(p.lat, t.lat...)
		for k, s := range t.steps {
			ps := &p.steps[k]
			ps.rate = s.rate
			ps.secs += s.secs
			ps.arrivals += s.arrivals
			ps.refused += s.refused
			ps.lsLate += s.lsLate
			ps.pendingStart += s.pendingStart
			ps.pendingEnd += s.pendingEnd
		}
	}
	return p
}

// endToEnd computes the simulated end-to-end metrics, and how many latency
// samples there are and how many lie beyond p99.9.
func (t *tally) endToEnd() (m map[string]float64, samples, beyond int) {
	lat := sortedCopy(t.lat)
	p50, _ := quantile(lat, 0.50)
	p999, beyond := quantile(lat, 0.999)
	ops := float64(t.ops)
	return map[string]float64{
		"sim_ops_per_s":      ops / t.secs,
		"sim_lat_p50_us":     float64(p50) / 1e3,
		"sim_lat_p999_us":    float64(p999) / 1e3,
		"sim_cpu_us_per_op":  t.coreSecs * 1e6 / ops,
		"sim_slo_rate_ops_s": t.sloRate(),
		"op_ok_ratio":        float64(t.attempted-t.refused) / float64(t.attempted),
	}, len(lat), beyond
}

// sloRate returns the highest offered rate of a step that passes: at most
// sloMissShare of its arrivals refused or late, and a backlog that grew by
// no more than that share.
// Closed loops have no offered rate to step; for them it is the rate of
// ops that completed within sloLimit.
func (t *tally) sloRate() float64 {
	if len(t.steps) == 0 {
		return float64(t.withinLimit) / t.secs
	}
	best := 0.0
	for _, s := range t.steps {
		allowed := sloMissShare * float64(s.arrivals)
		miss := float64(s.refused + s.lsLate)
		grew := float64(s.pendingEnd - s.pendingStart)
		if s.arrivals > 0 && miss <= allowed && grew <= allowed {
			best = max(best, s.rate)
		}
	}
	return best
}

// quantile returns the q-quantile of sorted samples (the ceil(q*n)-th
// order statistic) and how many samples lie beyond it.
func quantile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
	return sorted[idx], n - 1 - idx
}

func sortedCopy(s []int64) []int64 {
	out := append([]int64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracle records, for every block the benchmark wrote, which payload tags
// recovery may show. Generators write with ClientCtx.WriteTag, and each
// overwrite of a block takes a tag that the block could not hold yet, so a
// lost acknowledged write leaves a tag the oracle rejects. Prefilled blocks
// hold tag 0; so do bulk writes, because WriteBulk takes no tag.
type oracle struct {
	files  []file // in first-write order
	blocks map[file][]blockState
	next   byte   // the last tag handed out
	ops    uint64 // the last write id handed out
}

// blockState is one block's expectation.
type blockState struct {
	written bool // some write to the block completed
	// acked is the last completed write's tag, then the tags of writes
	// that completed while it was in flight: concurrent writes land in
	// either order.
	acked    []byte
	inflight []flight // writes started and not yet completed
}

// flight is one write in flight on a block.
type flight struct {
	id         uint64
	tag        byte
	overlapped []byte // tags of writes to the block that completed during this one
}

// write is one tagged write in flight, as start returns it.
type write struct {
	f   file
	fbn wafl.FBN
	n   int
	id  uint64
	tag byte
}

func newOracle() *oracle { return &oracle{blocks: make(map[file][]blockState)} }

// span returns the states of blocks [fbn, fbn+n) of f, growing the file's
// record as needed.
func (o *oracle) span(f file, fbn wafl.FBN, n int) []blockState {
	bs, ok := o.blocks[f]
	if !ok {
		o.files = append(o.files, f)
	}
	if need := int(fbn) + n; need > len(bs) {
		bs = append(bs, make([]blockState, need-len(bs))...)
		o.blocks[f] = bs
	}
	return bs[fbn : int(fbn)+n]
}

// prefilled records blocks [fbn, fbn+n) of f as holding tag 0.
func (o *oracle) prefilled(f file, fbn wafl.FBN, n int) {
	bs := o.span(f, fbn, n)
	for i := range bs {
		bs[i].written, bs[i].acked = true, append(bs[i].acked[:0], 0)
	}
}

// start registers a write of blocks [fbn, fbn+n) of f before it is issued.
// A tagged write gets a nonzero tag that no block of the span holds or has
// in flight; at most 14 writers share a file, so at most 8 x 29 tags are
// taken and one of the 255 is always free. An untagged (bulk) write
// carries tag 0.
func (o *oracle) start(f file, fbn wafl.FBN, n int, tagged bool) write {
	bs := o.span(f, fbn, n)
	o.ops++
	w := write{f: f, fbn: fbn, n: n, id: o.ops}
	for tagged && w.tag == 0 {
		o.next = o.next%255 + 1
		w.tag = o.next
		for i := range bs {
			if bs[i].holds(w.tag) {
				w.tag = 0
				break
			}
		}
	}
	for i := range bs {
		bs[i].inflight = append(bs[i].inflight, flight{id: w.id, tag: w.tag})
	}
	return w
}

// done records that w completed: acknowledged, or refused by admission
// control (it wrote nothing).
func (o *oracle) done(w write, acked bool) {
	bs := o.blocks[w.f][w.fbn : int(w.fbn)+w.n]
	for i := range bs {
		b := &bs[i]
		k := 0
		for b.inflight[k].id != w.id {
			k++
		}
		fl := b.inflight[k]
		b.inflight = append(b.inflight[:k], b.inflight[k+1:]...)
		if !acked {
			continue
		}
		b.written = true
		b.acked = append(append(b.acked[:0], w.tag), fl.overlapped...)
		for j := range b.inflight {
			b.inflight[j].overlapped = append(b.inflight[j].overlapped, w.tag)
		}
	}
}

// holds reports whether recovery may show tag in the block.
func (b *blockState) holds(tag byte) bool {
	for _, t := range b.acked {
		if t == tag {
			return true
		}
	}
	for _, fl := range b.inflight {
		if fl.tag == tag {
			return true
		}
	}
	return false
}

// payloadTag returns the tag of a block written with ClientCtx.WriteTag,
// whose payload byte i is ino ^ (fbn >> (i mod 24)) ^ tag ^ i (low bytes),
// or false if data does not follow that pattern for any tag. It checks
// the first 24 bytes, one cycle of the shifts; every workload's payload
// (Config.PayloadBytes) is longer.
func payloadTag(ino uint64, fbn wafl.FBN, data []byte) (byte, bool) {
	if len(data) < 24 {
		return 0, false
	}
	tag := data[0] ^ byte(ino) ^ byte(fbn)
	for i, b := range data[:24] {
		if b != byte(ino)^byte(uint64(fbn)>>(uint(i)%24))^tag^byte(i) {
			return 0, false
		}
	}
	return tag, true
}

// verify reads back every block the oracle knows on sys and checks its
// tag, returning how many blocks it checked and the first failure. A block
// no write has completed on may still be a hole.
func (o *oracle) verify(sys *wafl.System) (int, error) {
	checked := 0
	for _, f := range o.files {
		for i := range o.blocks[f] {
			b := &o.blocks[f][i]
			fbn := wafl.FBN(i)
			if !b.written && len(b.inflight) == 0 {
				continue
			}
			checked++
			data := sys.VerifyRead(f.vol, f.ino, fbn)
			if data == nil {
				if b.written {
					return checked, fmt.Errorf("acknowledged write lost: vol %d ino %d fbn %d is a hole", f.vol, f.ino, fbn)
				}
				continue
			}
			tag, ok := payloadTag(f.ino, fbn, data)
			if !ok {
				return checked, fmt.Errorf("vol %d ino %d fbn %d: content matches no write", f.vol, f.ino, fbn)
			}
			if !b.holds(tag) {
				return checked, fmt.Errorf("acknowledged write lost: vol %d ino %d fbn %d holds tag %d, want one of %v (%d writes in flight)",
					f.vol, f.ino, fbn, tag, b.acked, len(b.inflight))
			}
		}
	}
	return checked, nil
}
