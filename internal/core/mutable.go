package core

// Incremental index maintenance: the mutable successor of the frozen
// BBST pipeline. A frozen BBSTSampler answers draws over immutable
// structures built in bulk; a Mutable answers the same draws over
// structures that absorb point inserts and deletes batch by batch:
//
//   - the S side keeps one copy-on-write cell (grid.WithUpdates) per
//     non-empty grid cell, plus the corner structure cellCorner builds
//     over its x-sorted run, the frozen sampler's own rule: a BBST pair
//     for a cell of more than T = c·⌈log₂ m⌉ points (m the live S
//     count), none (nil: an exact scan of the run) for a smaller one.
//     Both are stored inline, as one dirCell, in a persistent directory
//     (grid.Dir, a path-copied trie over mixed cell keys) instead of a
//     Go map, so a lookup returns both. A dirCell reads as an sCell,
//     the type the frozen sampler assembles from its grid and corners
//     table, so both samplers count and draw a candidate through the
//     same code. A
//     batch that touches a cell replaces both, choosing the structure
//     by the cell's new size and the batch's final live count, with no
//     hysteresis: the touched cell's structure is rebuilt either way.
//     The new cell's x-sorted run is never written after publication,
//     so the structure built over it shares its points;
//   - the R side keeps one persistent slot tree (slotTree): each slot
//     holds its point and its 9 per-direction counts µ(r, d), and each
//     leaf of stChunk slots their µ(r), under a wide, shallow sum tree
//     (stFan child sums per node) that replaces the frozen Walker
//     alias; a cell→slots reverse index lists exactly the live slots of
//     each R cell (a batch gives every R cell it touches a new list),
//     so an S-side change recounts only the R points whose 3×3
//     neighborhood was touched, one batched muCounter pass per R cell
//     (the frozen Count's counter);
//   - Unfreeze lays the slots out cell by cell, so each R cell's slots
//     are one run of consecutive slots that share a few leaves, and a
//     recount reads and path-copies those leaves rather than one leaf
//     per point;
//   - deleting an R point zeroes its counts and threads the slot onto
//     a free list encoded in the slots themselves, so sustained churn
//     reuses slots instead of growing without bound. An insert takes
//     the free slot deleted last, wherever it lies, so under long churn
//     a cell's slots drift apart from the layout Unfreeze gave them;
//   - a batch that leaves more dead slots than live ones repacks the R
//     side: the live slots are laid out cell by cell again and the dead
//     ones dropped, so the slot array never holds more than twice the
//     live count and a shrink gives its memory back.
//
// Every version of the index is immutable: ApplyOps path-copies the
// touched cells and slot-tree paths and returns a NEW index, so
// published views keep serving the version they started with — the
// same discipline the dynamic store already applies to whole views.
// One batch of k operations costs Õ(k) (each op touches O(log) nodes
// plus one cell's O(|cell|) copy-on-write and corner rebuild, amortized
// by the batch), so steady churn never needs a bulk rebuild.
//
// Sampling stays the paper's Algorithm 1: one short descent of the
// slot tree (one child-sum scan per level, three levels up to 2^18
// slots) draws a slot proportional to µ(r), a cumulative scan of the
// slot's cached direction counts (exact for cases 1–2 and scanned
// corners, the BBST bound for the others) picks the direction, and
// only that direction's cell is looked up to draw a uniform candidate
// (laneTrials.candidates), accepted iff it lies in w(r).
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

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/par"
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
	cfg   Config
	side  float64 // grid cell side (= HalfExtent), fixed per index line
	scanC float64 // c of the scan threshold T = c·⌈log₂ m⌉, from the frozen sampler

	// S side.
	scells      *grid.Dir[dirCell]    // S cell -> its cell and corner structure
	sids        *grid.IDDir[grid.Key] // ID -> the cell of each live point with that ID
	sCount      int
	cornerBytes int // Σ cornerBytes of the cells' corner structures
	tMin, tMax  int // bound the T each cell was last built under

	// R side.
	slots    *slotTree // slot -> point, direction counts, µ; dead slots hold free markers
	freeHead int32     // head of the dead-slot chain (-1 when none)
	nFree    int
	rcells   *grid.Dir[[]int32] // R cell -> its live slots, each listed once
	rids     *grid.IDDir[int32] // ID -> live slots with that ID
	rCount   int
}

// dirCell is an S cell as the mutable directory holds it: the cell
// behind a pointer, so an entry stays 24 B, and its corner structure.
// The cell owns its two runs, which are never written after
// publication.
type dirCell struct {
	cell   *grid.Cell
	corner cornerIndex
}

// view is the cell as the counter and the trial read it.
func (e dirCell) view() sCell { return sCell{*e.cell, e.corner} }

// NumR and NumS report the live point counts.
func (ix *MutableIndex) NumR() int { return ix.rCount }
func (ix *MutableIndex) NumS() int { return ix.sCount }

// MuSum is the total alias mass Σ_r µ(r) of this version.
func (ix *MutableIndex) MuSum() float64 { return ix.slots.Total() }

// dirMask is a set of neighborhood directions, bit d for direction d.
type dirMask uint16

const allDirs dirMask = 1<<grid.NumDirections - 1

// neighborhood looks up the S cells of the 3×3 block around cell k in
// the directions of mask; the rest stay empty.
func (ix *MutableIndex) neighborhood(k grid.Key, mask dirMask) (nb nbhd) {
	for d := grid.Direction(0); d < grid.NumDirections; d++ {
		if mask&(1<<d) == 0 {
			continue
		}
		if e, ok := ix.scells.Get(k.Neighbor(d)); ok {
			nb[d] = e.view()
		}
	}
	return nb
}

// countsOf computes µ(r, d) for one R point against this version's S
// side, one direction at a time. It is the per-point reference the
// batched muCounter must agree with: R inserts take their counts from
// it, and CheckInvariants recounts every slot with it.
func (ix *MutableIndex) countsOf(pt geom.Point, sc *cornerScratch) dirCounts {
	k := grid.KeyFor(pt.X, pt.Y, ix.side)
	w := geom.Window(pt, ix.cfg.HalfExtent)
	var cnt dirCounts
	for d := grid.Direction(0); d < grid.NumDirections; d++ {
		if e, ok := ix.scells.Get(k.Neighbor(d)); ok {
			c := e.view()
			cnt[d] = int32(c.mu(d, w, sc))
		}
	}
	return cnt
}

// cellWork groups one batch's per-cell work in first-touch order
// (deterministic — derived from the batch's own order, never map
// iteration).
type cellWork[W any] struct {
	keys []grid.Key
	m    map[grid.Key]*W
}

// touch returns cell k's work, creating it on first touch.
func (c *cellWork[W]) touch(k grid.Key) *W {
	w := c.m[k]
	if w == nil {
		if c.m == nil {
			c.m = make(map[grid.Key]*W)
		}
		w = new(W)
		c.m[k] = w
		c.keys = append(c.keys, k)
	}
	return w
}

// scw is the per-cell S work of one batch: the points to insert, and
// the IDs to delete with the number of live points sids lists for them
// in this cell.
type scw struct {
	ins    []geom.Point
	ndel   int
	delIDs map[int32]struct{}
}

// rcw is the per-cell R work of one batch: the slots leaving the cell's
// reverse list and the slots joining it.
type rcw struct {
	del, ins []int32
}

// ApplyOps absorbs one batch and returns the new index version. The
// receiver is never modified. S operations are applied first (grouped
// per cell, one copy-on-write cell replacement and one rebuilt corner
// structure per touched cell), then R deletes, then R inserts with counts
// taken against the final S state, then every touched R cell gets a
// new reverse list, and the live R slots whose 3×3 neighborhood
// contains a touched S cell are recounted. Finally, if the batch leaves
// more dead slots than live ones, the R side is repacked.
func (ix *MutableIndex) ApplyOps(ops MutOps) (*MutableIndex, error) {
	if err := checkMutFinite(ops.InsR, "R"); err != nil {
		return nil, err
	}
	if err := checkMutFinite(ops.InsS, "S"); err != nil {
		return nil, err
	}
	nx := *ix
	var sc cornerScratch

	var swork cellWork[scw]
	for _, id := range ops.DelS {
		keys := nx.sids.Get(id)
		if len(keys) == 0 {
			continue
		}
		for _, k := range keys {
			w := swork.touch(k)
			w.ndel++
			if w.delIDs == nil {
				w.delIDs = make(map[int32]struct{})
			}
			w.delIDs[id] = struct{}{}
		}
		nx.sids = nx.sids.Without(id)
		nx.sCount -= len(keys)
	}
	for _, pt := range ops.InsS {
		k := grid.KeyFor(pt.X, pt.Y, nx.side)
		w := swork.touch(k)
		w.ins = append(w.ins, pt)
		nx.sids = nx.sids.With(pt.ID, k)
		nx.sCount++
	}
	for _, k := range swork.keys {
		if err := nx.applySCell(k, swork.m[k]); err != nil {
			return nil, err
		}
	}

	// The recount covers the live R slots with a touched S cell in their
	// neighborhood: exactly the slots in the 3×3 blocks around the
	// touched cells. Their cells are listed here, before the R side
	// changes, so the edit buffer is sized for every slot they hold.
	touched := make(map[grid.Key]dirMask, 9*len(swork.keys))
	var rkeys []grid.Key // first-touch order
	for _, k := range swork.keys {
		for d := grid.Direction(0); d < grid.NumDirections; d++ {
			rk := k.Neighbor(d)
			if _, ok := touched[rk]; !ok {
				rkeys = append(rkeys, rk)
			}
			touched[rk] |= 1 << d.Opposite()
		}
	}
	hint := len(ops.DelR) + len(ops.InsR)
	for _, rk := range rkeys {
		slots, _ := nx.rcells.Get(rk)
		hint += len(slots)
	}

	// R side: every slot write of the batch goes through one edit
	// buffer, so each touched slot-tree node is copied once.
	se := newSlotEdits(nx.slots, hint)
	var rwork cellWork[rcw]

	// R deletes: zero the slot and thread it onto the free list.
	for _, id := range ops.DelR {
		slots := nx.rids.Get(id)
		if len(slots) == 0 {
			continue
		}
		for _, slot := range slots {
			pt := se.get(slot).pt
			w := rwork.touch(grid.KeyFor(pt.X, pt.Y, nx.side))
			w.del = append(w.del, slot)
			se.set(slot, slotRec{pt: freeMarker(nx.freeHead)})
			nx.freeHead = slot
			nx.nFree++
		}
		nx.rids = nx.rids.Without(id)
		nx.rCount -= len(slots)
	}

	// R inserts: reuse a free slot when one exists, counts against the
	// final S side.
	for _, pt := range ops.InsR {
		rec := slotRec{pt: pt, cnt: nx.countsOf(pt, &sc)}
		var slot int32
		if nx.freeHead >= 0 {
			slot = nx.freeHead
			nx.freeHead = se.get(slot).pt.ID
			nx.nFree--
			se.set(slot, rec)
		} else {
			slot = se.push(rec)
		}
		w := rwork.touch(grid.KeyFor(pt.X, pt.Y, nx.side))
		w.ins = append(w.ins, slot)
		nx.rids = nx.rids.With(pt.ID, slot)
		nx.rCount++
	}
	for _, k := range rwork.keys {
		if err := nx.applyRCell(k, rwork.m[k]); err != nil {
			return nil, err
		}
	}

	// Recount the listed cells in the directions that point into a
	// touched cell (no other count can change), reading each slot once
	// and rewriting only the slots whose counts changed. Freshly
	// inserted slots recount to what was just stored.
	mc := muCounter{half: nx.cfg.HalfExtent}
	var prev []dirCounts
	for _, rk := range rkeys {
		slots, ok := nx.rcells.Get(rk)
		if !ok {
			continue
		}
		mc.reset()
		for _, slot := range slots {
			rec := se.get(slot)
			mc.add(rec.pt, rec.cnt)
		}
		prev = append(prev[:0], mc.cnt...)
		mask := touched[rk]
		nb := nx.neighborhood(rk, mask)
		mc.count(&nb, mask)
		for j, slot := range slots {
			if mc.cnt[j] != prev[j] {
				se.set(slot, slotRec{pt: mc.pts[j], cnt: mc.cnt[j]})
			}
		}
	}
	nx.slots = se.commit()
	if nx.nFree > nx.rCount {
		nx.repack()
	}
	return &nx, nil
}

// repack drops the dead slots once they outnumber the live ones: the
// live slots are laid out again cell by cell, in rcells order and each
// cell's list order, and the slot tree, rcells and rids are bulk-built
// over the new layout, as Unfreeze builds them, side by side across
// cfg.Workers. Every dead slot was freed by a delete since the last
// repack (or Unfreeze), and the slots moved number fewer than those
// deletes, so the repack's O(slots) cost keeps ApplyOps Õ(ops)
// amortized, and the slot array stays within twice the live count.
func (nx *MutableIndex) repack() {
	recs := make([]slotRec, 0, nx.rCount)
	starts := make([]int32, 0, nx.rcells.Len()+1)
	nx.rcells.Range(func(_ grid.Key, slots []int32) bool {
		starts = append(starts, int32(len(recs)))
		for _, slot := range slots {
			recs = append(recs, *nx.slots.get(int(slot)))
		}
		return true
	})
	starts = append(starts, int32(len(recs)))
	par.ForEach(3, nx.cfg.Workers, func(_, job int) {
		switch job {
		case 0:
			nx.slots = buildSlotTree(recs)
		case 1:
			nx.rcells = slotRuns(recs, starts, nx.side)
		case 2:
			nx.rids = grid.BuildIDDir(len(recs),
				func(i int) int32 { return recs[i].pt.ID },
				func(i int) int32 { return int32(i) })
		}
	})
	nx.freeHead, nx.nFree = -1, 0
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
// pass and the corner structure cellCorner builds over its x-sorted
// run, which is never written after publication, for the batch's final
// live S count m. Cells the batch leaves alone keep the structure they
// were built with.
func (nx *MutableIndex) applySCell(k grid.Key, w *scw) error {
	var oldCell *grid.Cell
	if c, ok := nx.scells.Get(k); ok {
		oldCell = c.cell
		nx.cornerBytes -= cornerBytes(c.corner)
	}
	var drop func(geom.Point) bool
	if len(w.delIDs) > 0 {
		ids := w.delIDs
		drop = func(p geom.Point) bool {
			_, dead := ids[p.ID]
			return dead
		}
	}
	ncell := grid.WithUpdates(oldCell, w.ins, drop)
	// Every listed delete must remove exactly one point of the cell:
	// sids and the cell disagree otherwise.
	if got, want := ncell.Len(), oldCell.Len()-w.ndel+len(w.ins); got != want {
		return fmt.Errorf("core: mutable S delete: cell (%d,%d) holds %d points after the batch, want %d",
			k.CX, k.CY, got, want)
	}
	if ncell == nil {
		nx.scells = nx.scells.Without(k)
		return nil
	}
	corner, err := cellCorner(ncell.XSorted, nx.sCount, nx.scanC, nx.cfg.BucketCap)
	if err != nil {
		return err
	}
	t := scanMax(nx.scanC, nx.sCount)
	nx.tMin, nx.tMax = min(nx.tMin, t), max(nx.tMax, t)
	nx.cornerBytes += cornerBytes(corner)
	nx.scells = nx.scells.With(k, dirCell{ncell, corner})
	return nil
}

// rcellSetMin is the number of deleted slots past which applyRCell
// filters through a set rather than a scan of the deleted slots.
const rcellSetMin = 8

// applyRCell gives R cell k a new reverse list: the old list minus the
// batch's deleted slots, plus its inserted ones. Every deleted slot must
// be listed: rids and the cell disagree otherwise. The list is never
// written after publication, like the S side's runs.
func (nx *MutableIndex) applyRCell(k grid.Key, w *rcw) error {
	old, _ := nx.rcells.Get(k)
	dropped := func(slot int32) bool { return slices.Contains(w.del, slot) }
	if len(w.del) > rcellSetMin {
		set := make(map[int32]struct{}, len(w.del))
		for _, slot := range w.del {
			set[slot] = struct{}{}
		}
		dropped = func(slot int32) bool { _, ok := set[slot]; return ok }
	}
	keep := len(old) - len(w.del)
	list := make([]int32, 0, max(keep, 0)+len(w.ins))
	for _, slot := range old {
		if !dropped(slot) {
			list = append(list, slot)
		}
	}
	if len(list) != keep {
		return fmt.Errorf("core: mutable R delete: cell (%d,%d) lists %d of its %d deleted slots",
			k.CX, k.CY, len(old)-len(list), len(w.del))
	}
	list = append(list, w.ins...)
	if len(list) == 0 {
		nx.rcells = nx.rcells.Without(k)
	} else {
		nx.rcells = nx.rcells.With(k, list)
	}
	return nil
}

// SizeBytes estimates the standalone footprint of this version in O(1)
// from the live counts: the slot tree, 30 B per S point for its cell's
// x-sorted copy and y position (28 B, plus about 2 B of allocation
// rounding), 64 B per S cell for its 48-byte header and the rounding
// of its two runs' allocations, the corner structures'
// own bytes (cornerBytes: a BBST pair's buckets and nodes, which point
// into the cell's x-sorted copy and own no points; a scan cell has
// none), 4 B per live R point for its slot's entry in
// rcells, which lists live slots only, and the directories; the ID
// directories count their own entries, a cell key per S point and a
// slot per R point. TestMutableSizeBytesTracksHeap holds it to the
// measured live heap.
func (ix *MutableIndex) SizeBytes() int {
	return ix.slots.sizeBytes() + 30*ix.sCount + 64*ix.scells.Len() + ix.cornerBytes + 4*ix.rCount +
		ix.scells.SizeBytes() + ix.sids.SizeBytes() + ix.rcells.SizeBytes() + ix.rids.SizeBytes()
}

// Mutable is a sampling handle over one MutableIndex version: the
// Sampler / Cloner / Reseeder the dynamic store serves through.
// Handles are cheap; Apply returns a new handle over the new version.
// Its base starts counted and has no phase bodies (the index is
// maintained, not built in phases), and holds no R or S: the index
// holds the points.
type Mutable struct {
	*base
	idx     *MutableIndex
	scratch cornerScratch
	lanes   laneGroup
}

// Unfreeze converts the prepared sampler into a Mutable over the same
// cells and corner structures, owned rather than shared: the frozen
// grid keeps every cell's runs in one array of points and one of y
// positions, so each cell gets copies of its two runs in exact-size
// arrays of its own, and a BBST pair is moved over the copy
// (ownCell). A version thus pins only the cells it still serves, never
// the frozen grid, and a dropped frozen sampler is freed whole (the
// frozen sampler itself is never touched). The slot tree is bulk-built
// from the frozen count records, which were counted against these same
// cells and corners, with R laid out cell by cell: a counting sort of R by the row Count
// filed each point under gives the slot order, so each R cell's slots
// are one run of consecutive slots.
// The cell directories are bulk-built over their distinct cell keys,
// scells holding each cell and corner by value, and rcells each cell's
// run as an exact-size list of its own, like a list ApplyOps makes.
// The ID directories are bulk-built from one radix sort by ID each,
// sids over S, whose points the cells hold, and rids over the slots. So
// no list or leaf a later version leaves untouched pins a bulk-built
// array.
// This is the one O(n + m) step of the mutable path; every ApplyOps
// after it is Õ(ops).
// An empty side or an empty join is accepted: the result is a
// zero-mass Mutable that inserts can fill.
func (s *BBSTSampler) Unfreeze() (*Mutable, error) {
	if s.cfg.WithoutReplacement {
		return nil, ErrNoParallelWithoutReplacement
	}
	if err := s.Count(); err != nil && !errors.Is(err, ErrEmptyJoin) {
		return nil, err
	}
	ix := &MutableIndex{
		cfg:      s.cfg,
		side:     s.g.Side(),
		scanC:    s.scanC,
		tMin:     scanMax(s.scanC, s.g.Len()),
		tMax:     scanMax(s.scanC, s.g.Len()),
		sCount:   s.g.Len(),
		freeHead: -1,
		rCount:   len(s.R),
	}
	S, R := s.S, s.R
	// Count filed every R point under its cell's row. The slots are laid
	// out row by row, R[i] with its count record in slot slotOf[i], so
	// each cell's slots are one run starts[c] .. starts[c+1]-1. The
	// records are scattered to their slots in R order, split across
	// cfg.Workers, so R and its records are read in order; rids is
	// built over R in its own order too.
	starts, perm := groupByRow(len(R), len(s.rows), s.recs.row)
	slotOf := make([]int32, len(R))
	for j, i := range perm {
		slotOf[i] = int32(j)
	}
	recs := make([]slotRec, len(R))
	par.ForEach(len(R), s.cfg.Workers, func(_, i int) {
		recs[slotOf[i]] = slotRec{pt: R[i], cnt: s.recs.counts(i, s.rows)}
	})
	// The five builds (scells, sids, rcells, rids and the slot tree)
	// read only the frozen sampler and the slots, and each writes
	// fields of its own, so they run side by side across cfg.Workers.
	par.ForEach(5, s.cfg.Workers, func(_, job int) {
		switch job {
		case 0:
			cells := make([]dirCell, s.g.NumCells())
			for i, corner := range s.corners {
				cells[i] = ownCell(s.g.ByIndex(int32(i)), corner)
				ix.cornerBytes += cornerBytes(cells[i].corner)
			}
			ix.scells = grid.BuildDir(len(cells),
				func(i int) grid.Key { return s.g.Key(int32(i)) },
				func(i int) dirCell { return cells[i] })
		case 1:
			ix.sids = grid.BuildIDDir(len(S),
				func(i int) int32 { return S[i].ID },
				func(i int) grid.Key { return grid.KeyFor(S[i].X, S[i].Y, ix.side) })
		case 2:
			ix.rcells = slotRuns(recs, starts, ix.side)
		case 3:
			ix.rids = grid.BuildIDDir(len(R),
				func(i int) int32 { return R[i].ID },
				func(i int) int32 { return slotOf[i] })
		case 4:
			ix.slots = buildSlotTree(recs)
		}
	})
	b := &base{name: s.name, cfg: s.cfg, rng: rng.New(s.cfg.Seed), state: phaseCounted}
	b.stats.MuSum = ix.MuSum()
	return &Mutable{base: b, idx: ix}, nil
}

// ownCell is frozen cell c with corner structure corner as Unfreeze
// adopts it: its two runs copied into exact-size arrays of its own and
// a BBST pair moved over the copy (bbst.Pair.Over), so the entry pins
// neither the grid's arrays nor the frozen pair's buckets, which
// window them.
func ownCell(c grid.Cell, corner cornerIndex) dirCell {
	c.XSorted = append(make([]geom.Point, 0, len(c.XSorted)), c.XSorted...)
	c.YOrder = append(make([]int32, 0, len(c.YOrder)), c.YOrder...)
	if bc, ok := corner.(bbstCorner); ok {
		corner = bbstCorner{bc.pair.Over(c.XSorted)}
	}
	return dirCell{&c, corner}
}

// slotRuns bulk-builds the R cell directory of slots laid out cell by
// cell: the c-th cell's slots are the run starts[c] .. starts[c+1]-1 of
// recs, listed in an exact-size array of its own, like a list ApplyOps
// makes. Unfreeze and repack share it.
func slotRuns(recs []slotRec, starts []int32, side float64) *grid.Dir[[]int32] {
	return grid.BuildDir(len(starts)-1,
		func(c int) grid.Key { r := recs[starts[c]].pt; return grid.KeyFor(r.X, r.Y, side) },
		func(c int) []int32 {
			list := make([]int32, starts[c+1]-starts[c])
			for j := range list {
				list[j] = starts[c] + int32(j)
			}
			return list
		})
}

// Apply absorbs one batch into a new index version and returns a
// handle over it. The receiver keeps serving its own version.
func (m *Mutable) Apply(ops MutOps) (*Mutable, error) {
	nx, err := m.idx.ApplyOps(ops)
	if err != nil {
		return nil, err
	}
	nb, err := m.cloneBase()
	if err != nil {
		return nil, err
	}
	nb.stats.MuSum = nx.MuSum()
	return &Mutable{base: nb, idx: nx}, nil
}

// Index returns the handle's immutable index version.
func (m *Mutable) Index() *MutableIndex { return m.idx }

// tryGroup runs one group of trials, each phase across all laneN
// lanes before the next: every lane's slot ∝ µ(r) by one slot-tree
// descent; its direction by a cumulative scan of the slot's cached
// counts, then only that direction's cell looked up; a uniform
// candidate of the cell; and the window test.
func (m *Mutable) tryGroup(lg *laneGroup) error {
	ix := m.idx
	total := ix.slots.Total()
	if total <= 0 {
		return ErrEmptyJoin
	}
	var recs [laneN]*slotRec
	var lt laneTrials
	for i := range recs {
		recs[i] = ix.slots.sample(m.rng.Float64() * total)
	}
	for i, rec := range recs {
		lt.dir[i], lt.k[i] = pickDir(rec.cnt[grid.Center], (*[grid.NumDirections - 1]int32)(rec.cnt[1:]), m.rng.Float64()*rec.mu())
	}
	for i, rec := range recs {
		if lt.k[i] > 0 {
			// A positive count means the cell exists in this version.
			lt.r[i] = rec.pt
			e, _ := ix.scells.Get(grid.KeyFor(rec.pt.X, rec.pt.Y, ix.side).Neighbor(lt.dir[i]))
			lt.cell[i] = e.view()
		}
	}
	lt.candidates(lg, ix.cfg.HalfExtent, m.rng, &m.scratch)
	return nil
}

// sampleInto is the lane loop behind SampleInto and Next.
func (m *Mutable) sampleInto(dst []geom.Pair) (int, error) {
	return drawLanes(dst, &m.lanes, m.cfg.maxRejects(), &m.stats, m.tryGroup, nil)
}

// Next draws one uniform independent join sample under the rejection
// budget.
func (m *Mutable) Next() (geom.Pair, error) {
	var p [1]geom.Pair
	_, err := m.sampleInto(p[:])
	return p[0], err
}

// Sample draws t samples through the batch loop.
func (m *Mutable) Sample(t int) ([]geom.Pair, error) { return sampleN(m, m.base, t) }

// SizeBytes estimates the index footprint.
func (m *Mutable) SizeBytes() int { return m.idx.SizeBytes() }

// Clone returns an independent handle over the same index version.
func (m *Mutable) Clone() (Sampler, error) {
	nb, err := m.cloneBase()
	if err != nil {
		return nil, err
	}
	return &Mutable{base: nb, idx: m.idx}, nil
}

// Reseed is base.Reseed plus dropping the handle's carry, so it draws
// what a fresh handle with that seed would.
func (m *Mutable) Reseed(seed uint64) {
	m.base.Reseed(seed)
	m.lanes = laneGroup{}
}

// LivePoints materializes the live point sets (R in slot order, which
// after Unfreeze or a repack is cell by cell, with later inserts in the
// slots they took; S in the directory's mixed-key order) — what snapshots and
// dumps record.
func (m *Mutable) LivePoints() (R, S []geom.Point) {
	ix := m.idx
	for i := 0; i < ix.slots.Len(); i++ {
		if pt := ix.slots.get(i).pt; !isFreeSlot(pt) {
			R = append(R, pt)
		}
	}
	ix.scells.Range(func(_ grid.Key, c dirCell) bool {
		S = append(S, c.cell.XSorted...)
		return true
	})
	return R, S
}

var (
	_ Sampler  = (*Mutable)(nil)
	_ Cloner   = (*Mutable)(nil)
	_ Reseeder = (*Mutable)(nil)
)

// CheckInvariants exhaustively validates one index version against its
// own redundant state — every cell's corner structure against its run
// (none exactly for a run of at most T; a BBST pair passes its own
// invariants over the run's points), the reverse
// indexes, the free list, every slot's cached direction counts against
// a recount, and every slot-tree sum against the pairwise
// recomputation. Test and race-hammer use only: O(everything).
func (ix *MutableIndex) CheckInvariants() error {
	var sc cornerScratch
	// S side: cells well-formed, corners in sync, counts add up.
	sTotal, cornerTotal := 0, 0
	var cellErr error
	ix.scells.Range(func(k grid.Key, cs dirCell) bool {
		c := cs.cell
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
		if err := checkYOrder(c); err != nil {
			cellErr = fmt.Errorf("cell (%d,%d): %w", k.CX, k.CY, err)
			return false
		}
		sTotal += c.Len()
		cornerTotal += cornerBytes(cs.corner)
		switch cr := cs.corner.(type) {
		case nil:
			if c.Len() > ix.tMax {
				cellErr = fmt.Errorf("cell (%d,%d) of %d points has no corner structure, T <= %d", k.CX, k.CY, c.Len(), ix.tMax)
			}
		case bbstCorner:
			if c.Len() <= ix.tMin {
				cellErr = fmt.Errorf("cell (%d,%d) of %d points has a BBST pair, T >= %d", k.CX, k.CY, c.Len(), ix.tMin)
			} else if err := cr.pair.CheckInvariants(); err != nil {
				cellErr = fmt.Errorf("cell (%d,%d): %w", k.CX, k.CY, err)
			} else if cr.pair.NumPoints() != c.Len() {
				cellErr = fmt.Errorf("cell (%d,%d): pair holds %d points, cell %d", k.CX, k.CY, cr.pair.NumPoints(), c.Len())
			}
		default:
			cellErr = fmt.Errorf("cell (%d,%d): corner structure %T", k.CX, k.CY, cs.corner)
		}
		return cellErr == nil
	})
	if cellErr != nil {
		return cellErr
	}
	if sTotal != ix.sCount {
		return fmt.Errorf("sCount %d, cells hold %d", ix.sCount, sTotal)
	}
	if cornerTotal != ix.cornerBytes {
		return fmt.Errorf("cornerBytes %d, the cells' corner structures hold %d", ix.cornerBytes, cornerTotal)
	}
	// sids lists each live point's cell under its ID: as a multiset of
	// (ID, cell) entries, exactly the cells' points.
	type sidEntry struct {
		id int32
		k  grid.Key
	}
	unlisted := make(map[sidEntry]int, ix.sCount)
	ix.scells.Range(func(k grid.Key, c dirCell) bool {
		for _, pt := range c.cell.XSorted {
			unlisted[sidEntry{pt.ID, k}]++
		}
		return true
	})
	sidTotal := 0
	var sidErr error
	ix.sids.Range(func(id int32, keys []grid.Key) bool {
		sidTotal += len(keys)
		for _, k := range keys {
			e := sidEntry{id, k}
			if unlisted[e] == 0 {
				sidErr = fmt.Errorf("sids lists ID %d in cell (%d,%d) once more than the cell holds it", id, k.CX, k.CY)
				return false
			}
			unlisted[e]--
		}
		return true
	})
	if sidErr != nil {
		return sidErr
	}
	if sidTotal != ix.sCount || ix.sids.Len() != ix.sCount {
		return fmt.Errorf("sids list %d points (Len %d), sCount %d", sidTotal, ix.sids.Len(), ix.sCount)
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
	if ix.nFree > ix.rCount {
		return fmt.Errorf("%d dead slots outnumber the %d live ones", ix.nFree, ix.rCount)
	}
	if live+ix.nFree != nslots {
		return fmt.Errorf("live %d + free %d != slots %d", live, ix.nFree, nslots)
	}
	// Every listed slot is live, in its own cell and listed once.
	seen := make(map[int32]struct{}, live)
	var rcErr error
	ix.rcells.Range(func(k grid.Key, slots []int32) bool {
		if len(slots) == 0 {
			rcErr = fmt.Errorf("cell (%d,%d) with no live slots left in rcells", k.CX, k.CY)
			return false
		}
		for _, slot := range slots {
			pt := ix.slots.get(int(slot)).pt
			if isFreeSlot(pt) || grid.KeyFor(pt.X, pt.Y, ix.side) != k {
				rcErr = fmt.Errorf("cell (%d,%d) lists slot %d (free or of another cell)", k.CX, k.CY, slot)
				return false
			}
			if _, dup := seen[slot]; dup {
				rcErr = fmt.Errorf("slot %d listed twice in rcells", slot)
				return false
			}
			seen[slot] = struct{}{}
		}
		return true
	})
	if rcErr != nil {
		return rcErr
	}
	if len(seen) != ix.rCount {
		return fmt.Errorf("rcells cover %d slots, rCount %d", len(seen), ix.rCount)
	}
	ridTotal := 0
	var ridErr error
	clear(seen)
	ix.rids.Range(func(id int32, slots []int32) bool {
		ridTotal += len(slots)
		for _, slot := range slots {
			pt := ix.slots.get(int(slot)).pt
			if isFreeSlot(pt) || pt.ID != id {
				ridErr = fmt.Errorf("rids list %d holds slot %d (free or wrong ID)", id, slot)
				return false
			}
			if _, dup := seen[slot]; dup {
				ridErr = fmt.Errorf("slot %d listed twice in rids", slot)
				return false
			}
			seen[slot] = struct{}{}
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

// checkYOrder requires c.YOrder to be a permutation of the positions
// of c.XSorted that is ascending in y.
func checkYOrder(c *grid.Cell) error {
	if len(c.YOrder) != len(c.XSorted) {
		return fmt.Errorf("YOrder lists %d positions for %d points", len(c.YOrder), len(c.XSorted))
	}
	seen := make([]bool, len(c.XSorted))
	for i, p := range c.YOrder {
		if p < 0 || int(p) >= len(seen) || seen[p] {
			return fmt.Errorf("YOrder[%d] = %d is out of range or repeated", i, p)
		}
		seen[p] = true
		if i > 0 && c.XSorted[c.YOrder[i-1]].Y > c.XSorted[p].Y {
			return fmt.Errorf("YOrder out of y order at %d", i)
		}
	}
	return nil
}
