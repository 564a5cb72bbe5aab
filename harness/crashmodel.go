package harness

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"

	"wafl"
)

// The crash oracle. Every block value is a tag: the executor writes with
// ClientCtx.WriteTag, whose pattern puts byte(ino)^byte(fbn)^tag in byte 0,
// so a read decodes to the tag that wrote it and a lost acknowledged
// overwrite reads back as an older tag. For each (vol, ino, fbn) the model
// keeps the values a crash may leave: the last acked tag plus any in flight.

// tagset is a set of block values: tags 0..61 (bulk writes are always tag
// 0), hole and torn (content matching no tag's pattern).
type tagset uint64

const (
	maxTag = 61
	hole   = 62
	torn   = 63
)

func one(v int) tagset { return 1 << uint(v) }

func (s tagset) String() string {
	var vs []string
	for v := 0; v <= torn; v++ {
		if s&one(v) != 0 {
			vs = append(vs, fmt.Sprint(v))
		}
	}
	return strings.NewReplacer("62", "hole", "63", "torn").Replace(fmt.Sprint(vs))
}

// file models whether a crash may leave a file present and/or absent, and
// what each written block may hold (unlisted blocks are holes).
type file struct {
	exist, absent bool
	span          int64 // blocks it may hold
	blocks        map[wafl.FBN]tagset
}

func (f *file) get(fbn wafl.FBN) tagset {
	if s, ok := f.blocks[fbn]; ok {
		return s
	}
	return one(hole)
}

// image is one volume state: its files by handle. A snapshot's image also
// says whether a crash may leave the snapshot present and/or absent.
type image struct {
	files         map[uint64]*file
	exist, absent bool
}

func (im *image) clone() *image {
	c := &image{files: map[uint64]*file{}}
	for ino, f := range im.files {
		g := *f
		g.blocks = maps.Clone(f.blocks)
		c.files[ino] = &g
	}
	return c
}

// volModel is one volume. Shadows are widen-only images that absorb every
// change made while they are pending: the image of a snapshot create in
// flight, and restore, the restored state of a SnapRestore in flight.
type volModel struct {
	live, restore *image
	shadows       map[*image]bool
	snaps         map[uint64]*image // acknowledged
	writes        map[*write]bool   // in flight
}

func newVol(live *image) *volModel {
	return &volModel{live: live, shadows: map[*image]bool{}, snaps: map[uint64]*image{}, writes: map[*write]bool{}}
}

// spread widens every shadow with the live ino and its blocks [fbn, fbn+n).
func (v *volModel) spread(ino uint64, fbn wafl.FBN, n int) {
	lf := v.live.files[ino]
	for sh := range v.shadows {
		sf := sh.files[ino]
		if sf == nil {
			sf = &file{absent: true, span: lf.span, blocks: map[wafl.FBN]tagset{}}
			sh.files[ino] = sf
		}
		sf.exist = sf.exist || lf.exist
		sf.absent = sf.absent || lf.absent
		for b := fbn; b < fbn+wafl.FBN(n); b++ {
			sf.blocks[b] = sf.get(b) | lf.get(b)
		}
	}
}

// restoring opens the restored candidate state of a SnapRestore: the
// snapshot's image, plus writes in flight, which the gate may hold until
// the restore commits.
func (v *volModel) restoring(id uint64) {
	v.restore = v.snaps[id].clone()
	for w := range v.writes {
		for b := w.fbn; v.restore.files[w.ino] != nil && b < w.fbn+wafl.FBN(w.n); b++ {
			v.restore.files[w.ino].blocks[b] = v.restore.files[w.ino].get(b) | one(w.tag)
		}
	}
	v.shadows[v.restore] = true
}

// model is the acknowledged state of every volume a case touches.
type model struct {
	vols   map[int]*volModel
	used   map[[2]uint64]tagset // tags written at (ino, fbn), on any volume
	binds  int                  // clone creates in flight
	splits map[int]bool         // clone volumes a split was issued on
}

// write is one write in flight.
type write struct {
	v     *volModel
	live  *image // the volume state it was issued against
	after *image // the restored state of a restore then in flight
	ino   uint64
	fbn   wafl.FBN
	n     int
	tag   int
}

// held returns every value an image of v may hold at (ino, fbn).
func (v *volModel) held(ino uint64, fbn wafl.FBN) tagset {
	s := v.live.files[ino].get(fbn)
	for sh := range v.shadows {
		if f := sh.files[ino]; f != nil {
			s |= f.get(fbn)
		}
	}
	for _, sn := range v.snaps {
		if f := sn.files[ino]; f != nil {
			s |= f.get(fbn)
		}
	}
	return s
}

// issue records a write as issued. Its tag is the lowest no block it covers
// has taken; once a block has taken every tag, the lowest no image may hold
// there, so it is never a value the block may already read back. Bulk
// writes are always tag 0 (WriteBulk's).
func (m *model) issue(vol int, ino uint64, fbn wafl.FBN, n int, bulk bool) *write {
	v := m.vols[vol]
	w := &write{v: v, live: v.live, after: v.restore, ino: ino, fbn: fbn, n: n}
	held := one(0)
	used := one(0)
	for b := fbn; !bulk && b < fbn+wafl.FBN(n); b++ {
		held |= v.held(ino, b)
		used |= m.used[[2]uint64{ino, uint64(b)}]
	}
	if !bulk {
		w.tag = bits.TrailingZeros64(^uint64(held | used))
		if w.tag > maxTag {
			w.tag = bits.TrailingZeros64(^uint64(held))
		}
	}
	f := v.live.files[ino]
	for b := fbn; b < fbn+wafl.FBN(n); b++ {
		f.blocks[b] = f.get(b) | one(w.tag)
		if !bulk {
			m.used[[2]uint64{ino, uint64(b)}] |= one(w.tag)
		}
	}
	v.spread(ino, fbn, n)
	v.writes[w] = true
	return w
}

// ack records the write as acknowledged; a shed one stays merely possible.
// It is exact on the state it was issued against, or on the restored state
// of a restore then in flight once that is acknowledged: acked after the
// restore, it landed behind the restore's gate (a write that landed before
// the restore's request acks long before the CP that commits the restore).
// A restore issued after it may have superseded it, so the restored state
// keeps both values.
func (w *write) ack(ok bool) {
	v := w.v
	f := v.live.files[w.ino]
	delete(v.writes, w)
	exact := v.live == w.live || v.live == w.after
	for b := w.fbn; f != nil && ok && exact && b < w.fbn+wafl.FBN(w.n); b++ {
		f.blocks[b] = one(w.tag)
	}
}

// value decodes a block read: its tag, hole, or torn. WriteTag's pattern,
// byte i = ino ^ fbn>>(i%24) ^ tag ^ i, is sampled in every sector.
func value(b []byte, ino uint64, fbn wafl.FBN) int {
	if b == nil {
		return hole
	}
	tag := b[0] ^ byte(ino) ^ byte(fbn)
	for i := 0; i < len(b); i += 61 {
		if b[i] != byte(ino)^byte(uint64(fbn)>>(uint(i)%24))^tag^byte(i) || tag > maxTag {
			return torn
		}
	}
	return int(tag)
}

// check compares an image with what read returns (ok=false: no such file).
// With alt, the other candidate state of a restore in flight, it checks
// only the files and blocks the two states agree on.
func check(img, alt *image, read func(ino uint64, fbn wafl.FBN) ([]byte, bool)) (errs []string) {
	for ino, f := range img.files {
		g := f
		if alt != nil {
			g = cmp.Or(alt.files[ino], &file{absent: true})
		}
		_, ok := read(ino, 0)
		if g.exist == f.exist && g.absent == f.absent && (ok && !f.exist || !ok && !f.absent) {
			errs = append(errs, fmt.Sprintf("ino %d: present=%v, want exist=%v absent=%v", ino, ok, f.exist, f.absent))
		}
		for fbn := wafl.FBN(0); ok && f.exist && int64(fbn) < f.span; fbn++ {
			want := f.get(fbn)
			if want != g.get(fbn) {
				continue // the states disagree here
			}
			b, _ := read(ino, fbn)
			if got := one(value(b, ino, fbn)); got&want == 0 {
				errs = append(errs, fmt.Sprintf("ino %d fbn %d: holds %v, want %v", ino, fbn, got, want))
				break
			}
		}
	}
	slices.Sort(errs)
	return errs
}

// verify checks every modelled volume, snapshot and clone against sys.
// quiesced marks the leg after Quiesce.
func (m *model) verify(sys *wafl.System, quiesced bool) (errs []string) {
	add := func(vol int, what string, es ...string) {
		for _, e := range es {
			errs = append(errs, fmt.Sprintf("vol %d%s: %s", vol, what, e))
		}
	}
	active := func(vol int) func(uint64, wafl.FBN) ([]byte, bool) {
		return func(ino uint64, fbn wafl.FBN) ([]byte, bool) {
			return sys.VerifyRead(vol, ino, fbn), sys.FileExists(vol, ino)
		}
	}
	for vol, v := range m.vols {
		es := check(v.live, nil, active(vol))
		if len(es) > 0 && v.restore != nil {
			// A restore in flight: once quiesced the volume must match the
			// pre-restore or the restored state in full. Until a CP applies a
			// replayed restore, reads serve the last committed image, so
			// before that only what both states agree on is checked.
			var alt *image
			if !quiesced {
				alt = v.live
			}
			if rs := check(v.restore, alt, active(vol)); len(rs) == 0 {
				es = nil
			} else {
				es = append(es, "and, against the restored state: "+rs[0])
			}
		}
		add(vol, "", es...)
		for id, s := range v.snaps {
			what := fmt.Sprintf(" snap %d", id)
			if ok := sys.SnapshotExists(vol, id); ok && !s.exist || !ok && !s.absent {
				add(vol, what, fmt.Sprintf("present=%v, want exist=%v absent=%v", ok, s.exist, s.absent))
			} else if ok {
				add(vol, what, check(s, nil, func(ino uint64, fbn wafl.FBN) ([]byte, bool) {
					return sys.SnapVerifyRead(vol, id, ino, fbn)
				})...)
			}
		}
	}
	// A clone the model does not know comes from a create in flight; once
	// bound it serves its parent snapshot's image.
	for _, cv := range sys.CloneVolumes() {
		pv, id, bound := sys.CloneParent(cv)
		switch {
		case m.vols[cv] != nil:
		case m.binds == 0:
			add(cv, "", "clone never created")
		case !bound:
			if quiesced {
				add(cv, "", "replayed clone still unbound after quiesce")
			}
		case m.vols[pv] == nil || m.vols[pv].snaps[id] == nil:
			add(cv, "", fmt.Sprintf("clone of unknown snapshot %d of vol %d", id, pv))
		default:
			add(cv, " (replayed clone)", check(m.vols[pv].snaps[id], nil, active(cv))...)
		}
	}
	slices.Sort(errs)
	return errs
}
