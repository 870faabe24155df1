package core

// Incremental index maintenance: the mutable successor of the frozen
// BBST pipeline. A frozen BBSTSampler answers draws over immutable
// structures built in bulk; a Mutable answers the same draws over
// structures that absorb point inserts and deletes in place:
//
//   - the S side keeps one copy-on-write cell (grid.WithUpdates) plus
//     one incrementally-maintained BBST pair (bbst.Insert/Delete on a
//     CloneForUpdate copy) per non-empty grid cell, reached through a
//     persistent directory (grid.Dir) instead of a Go map;
//   - the R side keeps one persistent slot tree (slotTree): each slot
//     holds its point, its 9 per-direction counts µ(r, d) and µ(r), in
//     leaves of stChunk slots under a wide, shallow sum tree (stFan
//     child sums per node) that replaces the frozen Walker alias; a
//     cell→slots reverse index lets an S-side change recount only the
//     R points whose 3×3 neighborhood was touched, one batched
//     muCounter pass per R cell (the frozen Count's counter);
//   - deleting an R point zeroes its counts and threads the slot onto
//     a free list encoded in the slots themselves, so sustained churn
//     reuses slots instead of growing without bound.
//
// Every version of the index is immutable: ApplyOps path-copies the
// touched cells and slot-tree paths and returns a NEW index, so
// published views keep serving the version they started with — the
// same discipline the dynamic store already applies to whole views.
// One batch of k operations costs Õ(k) (each op touches O(log) nodes
// plus one cell's O(|cell|) copy-on-write, amortized by the batch),
// so steady churn never needs a bulk rebuild.
//
// Sampling stays the paper's Algorithm 1: one short descent of the
// slot tree (one child-sum scan per level, three levels up to 2^18
// slots) draws a slot proportional to µ(r), a cumulative scan of the
// slot's cached direction counts (exact for cases 1–2, the BBST bound
// for corners) picks the direction, and only that direction's cell is
// looked up to draw a uniform candidate, accepted iff it lies in w(r).
// The cached counts are kept equal to a recount against the version's
// S side (ApplyOps recounts every slot a touched cell can affect, cell
// by cell, in the directions that point into a touched cell), so they
// sum to the stored µ(r) and every live pair is returned by one trial
// with probability exactly 1/Σµ. CheckInvariants checks this against
// the per-point countsOf, not the batched counter.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rng"
)

// MutOps is one batch of mutations for ApplyOps: points to insert and
// point IDs to delete, per side. Deleting an ID removes every live
// point carrying it on that side; an absent ID is a no-op. Deletes
// are applied before inserts, so a batch may delete an ID and insert
// its replacement.
type MutOps struct {
	InsR, InsS []geom.Point
	DelR, DelS []int32
}

// Empty reports whether the batch carries no operations.
func (o MutOps) Empty() bool {
	return len(o.InsR) == 0 && len(o.InsS) == 0 && len(o.DelR) == 0 && len(o.DelS) == 0
}

// mutCell is the per-cell S-side structure: the copy-on-write cell
// (two sorted point orders for the exact 0/1-sided cases) and the
// incrementally-maintained BBST pair (the 2-sided corners).
type mutCell struct {
	cell *grid.Cell
	pair *bbst.Pair
}

// rlist is one R cell's slot list. Deletes only decrement live (an
// O(1) copy of the value struct) and leave the dead slot in the list;
// the list is re-filtered when garbage exceeds live entries, so the
// amortized cost per operation stays Õ(1). Readers validate entries
// against the slots before use.
type rlist struct {
	slots []int32
	live  int32
}

// idKey packs a point ID into a directory key, so the persistent cell
// directory doubles as a persistent ID index.
func idKey(id int32) grid.Key { return grid.Key{CX: id} }

// freeMarker encodes a free-list link in a dead slot: NaN X marks the
// slot dead, ID carries the next free slot (-1 ends the chain).
func freeMarker(next int32) geom.Point {
	return geom.Point{X: math.NaN(), ID: next}
}

func isFreeSlot(pt geom.Point) bool { return math.IsNaN(pt.X) }

// MutableIndex is one immutable version of the maintained structures.
// ApplyOps returns a new version; old versions stay valid and answer
// concurrent draws unchanged.
type MutableIndex struct {
	cfg  Config
	side float64 // grid cell side (= HalfExtent), fixed per index line
	bcap int     // BBST b for new cells, sized for s0 live S points

	// S side.
	scells *grid.Dir[*mutCell]
	sids   *grid.Dir[[]geom.Point] // ID -> live points with that ID
	sCount int
	s0     int // live S count the bucket capacity was sized for

	// R side.
	slots    *slotTree // slot -> point, direction counts, µ; dead slots hold free markers
	freeHead int32     // head of the dead-slot chain (-1 when none)
	nFree    int
	rcells   *grid.Dir[rlist]
	rids     *grid.Dir[[]int32] // ID -> live slots with that ID
	rCount   int
}

// NumR and NumS report the live point counts.
func (ix *MutableIndex) NumR() int { return ix.rCount }
func (ix *MutableIndex) NumS() int { return ix.sCount }

// MuSum is the total alias mass Σ_r µ(r) of this version.
func (ix *MutableIndex) MuSum() float64 { return ix.slots.Total() }

// count returns µ(r, d) for the cell in direction d of r's window w:
// exact for cases 1–2, the BBST upper bound for corners.
func (mc *mutCell) count(d grid.Direction, w geom.Rect, sc *bbst.Scratch) int {
	if d.Case() == 3 {
		return mc.pair.MuS(cornerFor(d), w, sc)
	}
	return len(mc.cell.Matching(d, w))
}

// sample draws one candidate of direction d, whose cached count is
// k > 0; ok is false on an empty corner slot. The caller verifies
// window membership.
func (mc *mutCell) sample(d grid.Direction, k int32, w geom.Rect, r *rng.RNG, sc *bbst.Scratch) (geom.Point, bool) {
	if d.Case() == 3 {
		return mc.pair.SampleSlotS(cornerFor(d), w, r, sc)
	}
	return drawRun(mc.cell, d, k, r.Intn(int(k))), true
}

// dirMask is a set of neighborhood directions, bit d for direction d.
type dirMask uint16

const allDirs dirMask = 1<<grid.NumDirections - 1

// neighborhood looks up the S cells of the 3×3 block around cell k in
// the directions of mask, and the BBST pairs of its corners; the rest
// stay nil.
func (ix *MutableIndex) neighborhood(k grid.Key, mask dirMask) (nb nbhd) {
	for d := grid.Direction(0); d < grid.NumDirections; d++ {
		if mask&(1<<d) == 0 {
			continue
		}
		if mc, ok := ix.scells.Get(k.Neighbor(d)); ok {
			nb.cells[d] = mc.cell
			if d.Case() == 3 {
				nb.corners[d] = bbstCorner{pair: mc.pair}
			}
		}
	}
	return nb
}

// countsOf computes µ(r, d) for one R point against this version's S
// side, one direction at a time. It is the per-point reference the
// batched muCounter must agree with: R inserts take their counts from
// it, and CheckInvariants recounts every slot with it.
func (ix *MutableIndex) countsOf(pt geom.Point, sc *bbst.Scratch) dirCounts {
	k := grid.KeyFor(pt.X, pt.Y, ix.side)
	w := geom.Window(pt, ix.cfg.HalfExtent)
	var cnt dirCounts
	for d := grid.Direction(0); d < grid.NumDirections; d++ {
		if mc, ok := ix.scells.Get(k.Neighbor(d)); ok {
			cnt[d] = int32(mc.count(d, w, sc))
		}
	}
	return cnt
}

// scw is the per-cell S work of one batch.
type scw struct {
	ins    []geom.Point
	del    []geom.Point
	delIDs map[int32]struct{}
}

// ApplyOps absorbs one batch and returns the new index version. The
// receiver is never modified. S operations are applied first (grouped
// per cell, one copy-on-write cell replacement and one cloned BBST
// pair per touched cell), then R deletes, then R inserts with counts
// taken against the final S state, and finally the live R slots whose
// 3×3 neighborhood contains a touched S cell are recounted.
func (ix *MutableIndex) ApplyOps(ops MutOps) (*MutableIndex, error) {
	if err := checkMutFinite(ops.InsR, "R"); err != nil {
		return nil, err
	}
	if err := checkMutFinite(ops.InsS, "S"); err != nil {
		return nil, err
	}
	nx := *ix
	var sc bbst.Scratch

	// S side: group per-cell work in first-touch order (deterministic —
	// derived from the batch's own order, never map iteration).
	var cellKeys []grid.Key
	cells := make(map[grid.Key]*scw)
	touch := func(k grid.Key) *scw {
		w := cells[k]
		if w == nil {
			w = &scw{}
			cells[k] = w
			cellKeys = append(cellKeys, k)
		}
		return w
	}
	for _, id := range ops.DelS {
		pts, ok := nx.sids.Get(idKey(id))
		if !ok {
			continue
		}
		for _, pt := range pts {
			w := touch(grid.KeyFor(pt.X, pt.Y, nx.side))
			w.del = append(w.del, pt)
			if w.delIDs == nil {
				w.delIDs = make(map[int32]struct{})
			}
			w.delIDs[id] = struct{}{}
		}
		nx.sids = nx.sids.Without(idKey(id))
		nx.sCount -= len(pts)
	}
	for _, pt := range ops.InsS {
		w := touch(grid.KeyFor(pt.X, pt.Y, nx.side))
		w.ins = append(w.ins, pt)
		old, _ := nx.sids.Get(idKey(pt.ID))
		nx.sids = nx.sids.With(idKey(pt.ID), append(old[:len(old):len(old)], pt))
		nx.sCount++
	}
	for _, k := range cellKeys {
		if err := nx.applySCell(k, cells[k]); err != nil {
			return nil, err
		}
	}

	// R side: every slot write of the batch goes through one edit
	// buffer, so each touched slot-tree node is copied once.
	se := newSlotEdits(nx.slots)

	// R deletes: zero the slot, thread it onto the free list, and
	// retire it from its cell's reverse list.
	for _, id := range ops.DelR {
		slots, ok := nx.rids.Get(idKey(id))
		if !ok {
			continue
		}
		for _, slot := range slots {
			pt := se.get(slot).pt
			k := grid.KeyFor(pt.X, pt.Y, nx.side)
			se.set(slot, slotRec{pt: freeMarker(nx.freeHead)})
			nx.freeHead = slot
			nx.nFree++
			if err := nx.dropFromRCell(k, se); err != nil {
				return nil, err
			}
		}
		nx.rids = nx.rids.Without(idKey(id))
		nx.rCount -= len(slots)
	}

	// R inserts: reuse a free slot when one exists, counts against the
	// final S side.
	for _, pt := range ops.InsR {
		rec := newSlotRec(pt, nx.countsOf(pt, &sc))
		var slot int32
		if nx.freeHead >= 0 {
			slot = nx.freeHead
			nx.freeHead = se.get(slot).pt.ID
			nx.nFree--
			se.set(slot, rec)
		} else {
			slot = se.push(rec)
		}
		nx.addToRCell(grid.KeyFor(pt.X, pt.Y, nx.side), slot, se)
		old, _ := nx.rids.Get(idKey(pt.ID))
		nx.rids = nx.rids.With(idKey(pt.ID), append(old[:len(old):len(old)], slot))
		nx.rCount++
	}

	// Recount the live R slots with a touched S cell in their
	// neighborhood — exactly the slots in the 3×3 blocks around the
	// touched cells — in the directions that point into a touched cell
	// (no other count can change), rewriting only the slots whose counts
	// changed. Freshly inserted slots recount to what was just stored.
	touched := make(map[grid.Key]dirMask, 9*len(cellKeys))
	var rkeys []grid.Key // first-touch order
	for _, k := range cellKeys {
		for d := grid.Direction(0); d < grid.NumDirections; d++ {
			rk := k.Neighbor(d)
			if _, ok := touched[rk]; !ok {
				rkeys = append(rkeys, rk)
			}
			touched[rk] |= 1 << d.Opposite()
		}
	}
	mc := muCounter{half: nx.cfg.HalfExtent}
	var live []int32
	for _, rk := range rkeys {
		rl, ok := nx.rcells.Get(rk)
		if !ok {
			continue
		}
		mc.reset()
		live = live[:0]
		for _, slot := range rl.slots {
			rec := se.get(slot)
			if isFreeSlot(rec.pt) || grid.KeyFor(rec.pt.X, rec.pt.Y, nx.side) != rk {
				continue // retired entry awaiting re-filter
			}
			live = append(live, slot)
			mc.add(rec.pt, rec.cnt)
		}
		mask := touched[rk]
		nb := nx.neighborhood(rk, mask)
		mc.count(&nb, mask)
		for j, slot := range live {
			if rec := se.get(slot); mc.cnt[j] != rec.cnt {
				se.set(slot, newSlotRec(rec.pt, mc.cnt[j]))
			}
		}
	}
	nx.slots = se.commit()
	return &nx, nil
}

func checkMutFinite(pts []geom.Point, side string) error {
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("core: mutable %s insert: point ID %d has non-finite coordinates", side, p.ID)
		}
	}
	return nil
}

// applySCell replaces one S cell: the copy-on-write cell in one merge
// pass, the BBST pair via clone-and-edit (or a bulk build for a brand
// new cell).
func (nx *MutableIndex) applySCell(k grid.Key, w *scw) error {
	var oldCell *grid.Cell
	var oldPair *bbst.Pair
	if mc, ok := nx.scells.Get(k); ok {
		oldCell, oldPair = mc.cell, mc.pair
	}
	var drop func(geom.Point) bool
	if len(w.delIDs) > 0 {
		ids := w.delIDs
		drop = func(p geom.Point) bool {
			_, dead := ids[p.ID]
			return dead
		}
	}
	ncell := grid.WithUpdates(k, oldCell, w.ins, drop)
	if ncell == nil {
		nx.scells = nx.scells.Without(k)
		return nil
	}
	var npair *bbst.Pair
	if oldPair == nil {
		p, err := bbst.Build(ncell.XSorted, nx.bcap)
		if err != nil {
			return err
		}
		npair = p
	} else {
		npair = oldPair.CloneForUpdate()
		for _, pt := range w.del {
			found, err := npair.Delete(pt)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("core: mutable S delete: point ID %d missing from cell (%d,%d)", pt.ID, k.CX, k.CY)
			}
		}
		for _, pt := range w.ins {
			if err := npair.Insert(pt); err != nil {
				return err
			}
		}
	}
	nx.scells = nx.scells.With(k, &mutCell{cell: ncell, pair: npair})
	return nil
}

// dropFromRCell retires one live slot from cell k's reverse list.
func (nx *MutableIndex) dropFromRCell(k grid.Key, se *slotEdits) error {
	rl, ok := nx.rcells.Get(k)
	if !ok || rl.live == 0 {
		return fmt.Errorf("core: mutable R delete: cell (%d,%d) has no live slots", k.CX, k.CY)
	}
	rl.live--
	nx.putRList(k, rl, se)
	return nil
}

// addToRCell lists one live slot in cell k's reverse list. A reused
// slot may still be listed there from its previous life (deletes leave
// the entry until a re-filter); that entry is revived rather than
// listed twice. The append may extend the backing array shared with
// published versions, which is safe: their rlist value caps their view
// of it, ApplyOps runs single-writer, and readers never touch rcells —
// only ApplyOps and test invariants (both serialized) do.
func (nx *MutableIndex) addToRCell(k grid.Key, slot int32, se *slotEdits) {
	rl, _ := nx.rcells.Get(k)
	rl.live++
	if !slices.Contains(rl.slots, slot) {
		rl.slots = append(rl.slots, slot)
	}
	nx.putRList(k, rl, se)
}

// putRList stores cell k's reverse list: the cell leaves rcells with
// its last live slot, and the list is re-filtered down to slots that
// are live and still in cell k once dead entries outnumber live ones.
func (nx *MutableIndex) putRList(k grid.Key, rl rlist, se *slotEdits) {
	if rl.live == 0 {
		nx.rcells = nx.rcells.Without(k)
		return
	}
	if len(rl.slots) > 2*int(rl.live) {
		out := make([]int32, 0, len(rl.slots)/2+1)
		for _, slot := range rl.slots {
			if pt := se.get(slot).pt; !isFreeSlot(pt) && grid.KeyFor(pt.X, pt.Y, nx.side) == k {
				out = append(out, slot)
			}
		}
		rl.slots = out
	}
	nx.rcells = nx.rcells.With(k, rl)
}

// rebaseDriftFactor is the live-S-count drift (either way) past which
// the fixed bucket capacity is considered mis-sized.
const rebaseDriftFactor = 8

// NeedsRebase reports whether the live S count has drifted so far from
// the count the bucket capacity was sized for that the corner upper
// bounds may rot the acceptance rate — the pathological-skew escape
// hatch. Steady churn keeps the live count near s0 and never trips it.
func (ix *MutableIndex) NeedsRebase() bool {
	hi := ix.s0 * rebaseDriftFactor
	if hi < 64 {
		hi = 64
	}
	return ix.sCount > hi || (ix.sCount > 0 && ix.sCount*rebaseDriftFactor < ix.s0)
}

// SizeBytes estimates the standalone footprint of this version in O(1)
// from the live counts: the slot tree, ~140 B per S point (two sorted
// copies in its cell, its bucket slot and share of the BBST nodes, its
// sids entry), the directories, and the reverse-list slot IDs.
// TestMutableSizeBytesTracksHeap holds it to the measured live heap.
func (ix *MutableIndex) SizeBytes() int {
	return ix.slots.sizeBytes() + 140*ix.sCount + 8*ix.slots.Len() +
		ix.scells.SizeBytes() + ix.sids.SizeBytes() + ix.rcells.SizeBytes() + ix.rids.SizeBytes()
}

// Mutable is a sampling handle over one MutableIndex version: the
// Sampler / Cloner / Reseeder the dynamic store serves through.
// Handles are cheap; Apply returns a new handle over the new version.
type Mutable struct {
	idx        *MutableIndex
	name       string
	maxRejects int
	rng        *rng.RNG
	scratch    bbst.Scratch
	stats      Stats
}

// Unfreeze converts the prepared sampler into a Mutable sharing every
// frozen structure: the cells and per-cell BBST pairs are adopted as-is
// (the first mutation of a cell clones them copy-on-write, so the
// frozen sampler keeps serving untouched). The slot tree is bulk-built
// from the frozen count records, which were counted against these same
// cells and pairs, and the directories are bulk-built in one sort
// each. This is the one O(n + m) step of the mutable path; every
// ApplyOps after it is Õ(ops).
// An empty side or an empty join is accepted: the result is a
// zero-mass Mutable that inserts can fill.
func (s *BBSTSampler) Unfreeze() (*Mutable, error) {
	if s.cfg.WithoutReplacement {
		return nil, ErrNoParallelWithoutReplacement
	}
	if err := ensure(s, s.base, phaseCounted); err != nil && !errors.Is(err, ErrEmptyJoin) {
		return nil, err
	}
	bcap := s.cfg.BucketCap
	if bcap == 0 {
		bcap = bbst.BucketCap(len(s.S))
	}
	ix := &MutableIndex{
		cfg:      s.cfg,
		side:     s.g.Side(),
		bcap:     bcap,
		sCount:   len(s.sortedS),
		s0:       len(s.sortedS),
		freeHead: -1,
		rCount:   len(s.R),
	}
	var cells []mutCell
	s.g.Cells(func(c *grid.Cell) {
		cells = append(cells, mutCell{cell: c, pair: s.corners[c.Index].(bbstCorner).pair})
	})
	ix.scells = grid.BuildDir(len(cells),
		func(i int) grid.Key { return cells[i].cell.Key },
		func(idx []int32) *mutCell { return &cells[idx[0]] })
	S := s.sortedS
	sidPts := make([]geom.Point, 0, len(S))
	ix.sids = grid.BuildDir(len(S),
		func(i int) grid.Key { return idKey(S[i].ID) },
		func(idx []int32) []geom.Point {
			start := len(sidPts)
			for _, i := range idx {
				sidPts = append(sidPts, S[i])
			}
			return sidPts[start:len(sidPts):len(sidPts)]
		})

	R := s.R
	ix.rcells = grid.BuildDir(len(R),
		func(i int) grid.Key { return grid.KeyFor(R[i].X, R[i].Y, ix.side) },
		func(idx []int32) rlist { return rlist{slots: idx, live: int32(len(idx))} })
	ix.rids = grid.BuildDir(len(R),
		func(i int) grid.Key { return idKey(R[i].ID) },
		func(idx []int32) []int32 { return idx })
	recs := make([]slotRec, len(R))
	for i, pr := range s.recs {
		recs[i] = newSlotRec(R[i], pr.cnt)
	}
	ix.slots = buildSlotTree(recs)
	m := &Mutable{
		idx:        ix,
		name:       s.name,
		maxRejects: s.cfg.maxRejects(),
		rng:        rng.New(s.cfg.Seed),
	}
	m.stats.MuSum = ix.MuSum()
	return m, nil
}

// Apply absorbs one batch into a new index version and returns a
// handle over it. The receiver keeps serving its own version.
func (m *Mutable) Apply(ops MutOps) (*Mutable, error) {
	nx, err := m.idx.ApplyOps(ops)
	if err != nil {
		return nil, err
	}
	nm := &Mutable{
		idx:        nx,
		name:       m.name,
		maxRejects: m.maxRejects,
		rng:        m.rng.Split(),
	}
	nm.stats.MuSum = nx.MuSum()
	return nm, nil
}

// Index returns the handle's immutable index version.
func (m *Mutable) Index() *MutableIndex { return m.idx }

// Name identifies the sampler in engine stats.
func (m *Mutable) Name() string { return m.name }

// Preprocess is a no-op: the index is maintained, not built in phases.
func (m *Mutable) Preprocess() error { return nil }

// Build is a no-op: the index is maintained, not built in phases.
func (m *Mutable) Build() error { return nil }

// Count is a no-op: µ is maintained incrementally.
func (m *Mutable) Count() error { return nil }

// TryNext runs one sampling trial: one slot-tree descent draws the
// slot ∝ µ(r), a cumulative scan of its cached direction counts picks
// the direction, and only that direction's cell is looked up to draw a
// uniform candidate, accepted iff it lies in w(r).
func (m *Mutable) TryNext() (geom.Pair, bool, error) {
	ix := m.idx
	total := ix.slots.Total()
	if total <= 0 {
		return geom.Pair{}, false, ErrEmptyJoin
	}
	m.stats.Iterations++
	rec := ix.slots.sample(m.rng.Float64() * total)
	r := rec.pt
	d, k := pickDir(&rec.cnt, m.rng.Float64()*rec.mu)
	if k == 0 {
		return geom.Pair{}, false, nil // u rounded onto µ(r)
	}
	// A positive count means the cell exists in this version.
	mc, _ := ix.scells.Get(grid.KeyFor(r.X, r.Y, ix.side).Neighbor(d))
	w := geom.Window(r, ix.cfg.HalfExtent)
	s, ok := mc.sample(d, k, w, m.rng, &m.scratch)
	if !ok || !w.Contains(s) {
		return geom.Pair{}, false, nil
	}
	m.stats.Samples++
	return geom.Pair{R: r, S: s}, true, nil
}

// sampleInto is the batch loop behind SampleInto and Next.
func (m *Mutable) sampleInto(dst []geom.Pair) (int, error) {
	return fillBatch(dst, m.maxRejects, &m.stats.SampleTime, m.TryNext)
}

// Next draws one uniform independent join sample under the rejection
// budget.
func (m *Mutable) Next() (geom.Pair, error) {
	var p [1]geom.Pair
	_, err := m.sampleInto(p[:])
	return p[0], err
}

// Sample draws t samples through the batch loop.
func (m *Mutable) Sample(t int) ([]geom.Pair, error) { return sampleN(m, nil, t) }

// Stats reports the handle's counters; MuSum is the version's Σµ.
func (m *Mutable) Stats() Stats { return m.stats }

// SizeBytes estimates the index footprint.
func (m *Mutable) SizeBytes() int { return m.idx.SizeBytes() }

// Clone returns an independent handle over the same index version.
func (m *Mutable) Clone() (Sampler, error) {
	nm := &Mutable{
		idx:        m.idx,
		name:       m.name,
		maxRejects: m.maxRejects,
		rng:        m.rng.Split(),
	}
	nm.stats.MuSum = m.stats.MuSum
	return nm, nil
}

// Reseed reinitializes the handle's random stream.
func (m *Mutable) Reseed(seed uint64) { m.rng.Reseed(seed) }

// LivePoints materializes the live point sets (R in slot order, S in
// directory hash order) — the compaction path's input.
func (m *Mutable) LivePoints() (R, S []geom.Point) {
	ix := m.idx
	for i := 0; i < ix.slots.Len(); i++ {
		if pt := ix.slots.get(i).pt; !isFreeSlot(pt) {
			R = append(R, pt)
		}
	}
	ix.scells.Range(func(_ grid.Key, mc *mutCell) bool {
		S = append(S, mc.cell.XSorted...)
		return true
	})
	return R, S
}

// NeedsRebase exposes the index's pathological-skew escape hatch.
func (m *Mutable) NeedsRebase() bool { return m.idx.NeedsRebase() }

// HasR and HasS report whether any live point of the side carries the
// ID — invariant probes for callers asserting deletes stuck.
func (ix *MutableIndex) HasR(id int32) bool { _, ok := ix.rids.Get(idKey(id)); return ok }
func (ix *MutableIndex) HasS(id int32) bool { _, ok := ix.sids.Get(idKey(id)); return ok }

var (
	_ Sampler  = (*Mutable)(nil)
	_ Cloner   = (*Mutable)(nil)
	_ Reseeder = (*Mutable)(nil)
)

// CheckInvariants exhaustively validates one index version against its
// own redundant state — every per-cell BBST invariant, the reverse
// indexes, the free list, every slot's cached direction counts against
// a recount, and every slot-tree sum against the pairwise
// recomputation. Test and race-hammer use only: O(everything).
func (ix *MutableIndex) CheckInvariants() error {
	var sc bbst.Scratch
	// S side: cells well-formed, pairs in sync, counts add up.
	sTotal := 0
	var cellErr error
	ix.scells.Range(func(k grid.Key, mc *mutCell) bool {
		c := mc.cell
		if c.Len() == 0 {
			cellErr = fmt.Errorf("empty cell (%d,%d) left in directory", k.CX, k.CY)
			return false
		}
		for _, pt := range c.XSorted {
			if grid.KeyFor(pt.X, pt.Y, ix.side) != k {
				cellErr = fmt.Errorf("cell (%d,%d) holds point ID %d of another cell", k.CX, k.CY, pt.ID)
				return false
			}
		}
		for i := 1; i < len(c.XSorted); i++ {
			if c.XSorted[i-1].X > c.XSorted[i].X {
				cellErr = fmt.Errorf("cell (%d,%d) XSorted out of order", k.CX, k.CY)
				return false
			}
		}
		for i := 1; i < len(c.YSorted); i++ {
			if c.YSorted[i-1].Y > c.YSorted[i].Y {
				cellErr = fmt.Errorf("cell (%d,%d) YSorted out of order", k.CX, k.CY)
				return false
			}
		}
		if err := mc.pair.CheckInvariants(); err != nil {
			cellErr = fmt.Errorf("cell (%d,%d): %w", k.CX, k.CY, err)
			return false
		}
		if mc.pair.NumPoints() != c.Len() {
			cellErr = fmt.Errorf("cell (%d,%d): pair holds %d points, cell %d", k.CX, k.CY, mc.pair.NumPoints(), c.Len())
			return false
		}
		sTotal += c.Len()
		return true
	})
	if cellErr != nil {
		return cellErr
	}
	if sTotal != ix.sCount {
		return fmt.Errorf("sCount %d, cells hold %d", ix.sCount, sTotal)
	}
	sidTotal := 0
	var sidErr error
	ix.sids.Range(func(k grid.Key, pts []geom.Point) bool {
		sidTotal += len(pts)
		for _, pt := range pts {
			if pt.ID != k.CX {
				sidErr = fmt.Errorf("sids list %d holds point ID %d", k.CX, pt.ID)
				return false
			}
			mc, ok := ix.scells.Get(grid.KeyFor(pt.X, pt.Y, ix.side))
			if !ok {
				sidErr = fmt.Errorf("sids point ID %d has no cell", pt.ID)
				return false
			}
			found := false
			for _, q := range mc.cell.XSorted {
				if q == pt {
					found = true
					break
				}
			}
			if !found {
				sidErr = fmt.Errorf("sids point ID %d missing from its cell", pt.ID)
				return false
			}
		}
		return true
	})
	if sidErr != nil {
		return sidErr
	}
	if sidTotal != ix.sCount {
		return fmt.Errorf("sids hold %d points, sCount %d", sidTotal, ix.sCount)
	}
	// R side: slot tree, cached counts, free chain, reverse indexes.
	if err := ix.slots.checkSums(); err != nil {
		return err
	}
	nslots := ix.slots.Len()
	live := 0
	for i := 0; i < nslots; i++ {
		rec := ix.slots.get(i)
		want := dirCounts{}
		if !isFreeSlot(rec.pt) {
			live++
			want = ix.countsOf(rec.pt, &sc)
		}
		if rec.cnt != want {
			return fmt.Errorf("slot %d (ID %d): cached counts %v, recount %v", i, rec.pt.ID, rec.cnt, want)
		}
	}
	if live != ix.rCount {
		return fmt.Errorf("rCount %d, live slots %d", ix.rCount, live)
	}
	chain := 0
	for s := ix.freeHead; s >= 0; {
		pt := ix.slots.get(int(s)).pt
		if !isFreeSlot(pt) {
			return fmt.Errorf("free chain reaches live slot %d", s)
		}
		chain++
		if chain > nslots {
			return fmt.Errorf("free chain cycles")
		}
		s = pt.ID
	}
	if chain != ix.nFree {
		return fmt.Errorf("free chain length %d, nFree %d", chain, ix.nFree)
	}
	if live+ix.nFree != nslots {
		return fmt.Errorf("live %d + free %d != slots %d", live, ix.nFree, nslots)
	}
	seen := make(map[int32]struct{}, live)
	var rcErr error
	rcLive := 0
	ix.rcells.Range(func(k grid.Key, rl rlist) bool {
		n := 0
		for _, slot := range rl.slots {
			pt := ix.slots.get(int(slot)).pt
			if isFreeSlot(pt) || grid.KeyFor(pt.X, pt.Y, ix.side) != k {
				continue
			}
			if _, dup := seen[slot]; dup {
				rcErr = fmt.Errorf("slot %d listed twice in rcells", slot)
				return false
			}
			seen[slot] = struct{}{}
			n++
		}
		if n != int(rl.live) {
			rcErr = fmt.Errorf("cell (%d,%d): live %d, list holds %d valid", k.CX, k.CY, rl.live, n)
			return false
		}
		if n == 0 {
			rcErr = fmt.Errorf("cell (%d,%d) with no live slots left in rcells", k.CX, k.CY)
			return false
		}
		rcLive += n
		return true
	})
	if rcErr != nil {
		return rcErr
	}
	if rcLive != ix.rCount {
		return fmt.Errorf("rcells cover %d slots, rCount %d", rcLive, ix.rCount)
	}
	ridTotal := 0
	var ridErr error
	ix.rids.Range(func(k grid.Key, slots []int32) bool {
		ridTotal += len(slots)
		for _, slot := range slots {
			pt := ix.slots.get(int(slot)).pt
			if isFreeSlot(pt) || pt.ID != k.CX {
				ridErr = fmt.Errorf("rids list %d holds slot %d (free or wrong ID)", k.CX, slot)
				return false
			}
		}
		return true
	})
	if ridErr != nil {
		return ridErr
	}
	if ridTotal != ix.rCount {
		return fmt.Errorf("rids hold %d slots, rCount %d", ridTotal, ix.rCount)
	}
	return nil
}
