package core

import (
	"math"
	"slices"
	"unsafe"

	"repro/internal/alias"
	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/par"
	"repro/internal/rng"
)

// cornerIndex is the per-cell structure that answers the 2-sided
// (case 3) corner queries: the two BBSTs of the paper for a cell of
// more than T points, or the per-cell kd-tree of the Fig. 9 ablation;
// a smaller BBST cell has none (nil) and scans its run (scanRun). It is
// immutable once built: every clone of a sampler, and every mutable
// index version unfrozen from it, shares the same corner structures,
// and the query buffers live in the calling handle's cornerScratch.
// Only sCell calls it.
type cornerIndex interface {
	// mu returns the count of cell points matching the corner
	// constraint of w: Lemma 5's upper bound for a BBST, exact for
	// the scan and the kd-tree.
	mu(c bbst.Corner, w geom.Rect, sc *cornerScratch) int
	// sample draws one candidate for the corner, k > 0 being the
	// count mu returned, which the trial's record holds (only the scan
	// reads it); ok is false on an empty slot. The caller still
	// verifies window membership.
	sample(c bbst.Corner, w geom.Rect, k int32, r *rng.RNG, sc *cornerScratch) (geom.Point, bool)
	// sizeBytes estimates the structure footprint.
	sizeBytes() int
}

// sCell is one S cell, by value, with its corner structure (nil for a
// scan cell). It and the trials' candidate phase
// (laneTrials.candidates) are the one place where a count or a
// candidate draw dispatches by case: the cell's sorted runs answer
// cases 1–2 exactly, the corner structure answers case 3, and a scan
// cell's corners are scanned. The frozen sampler assembles its sCells
// from the grid's cell views and its corners table (gridSampler.cell),
// and the mutable index from its directory entries (dirCell.view); the
// batched counter's corners and countsOf go through mu, and both
// trials through candidates. The zero sCell is an empty cell.
type sCell struct {
	cell   grid.Cell
	corner cornerIndex
}

// mu is µ for direction d of window w: exact for cases 1–2 and a scan
// corner, the corner structure's count (Lemma 5's bound for a BBST)
// for the other corners.
func (c *sCell) mu(d grid.Direction, w geom.Rect, sc *cornerScratch) int {
	switch {
	case d.Case() != 3:
		return c.cell.Matching(d, w)
	case c.corner == nil:
		n, _, _ := scanRun(c.cell.XSorted, cornerFor(d), w, -1)
		return n
	}
	return c.corner.mu(cornerFor(d), w, sc)
}

// sampleCorner draws one candidate for corner direction d, k > 0 being
// the count mu returned, which the trial's record holds: the corner
// structure's draw, or pick at a uniform index in [0, k) for a scan
// cell. ok is false on an empty slot; the caller verifies window
// membership.
func (c *sCell) sampleCorner(d grid.Direction, k int32, w geom.Rect, r *rng.RNG, sc *cornerScratch) (geom.Point, bool) {
	if c.corner != nil {
		return c.corner.sample(cornerFor(d), w, k, r, sc)
	}
	return c.pick(d, w, r.Intn(int(k)))
}

// laneTrials is one group of trials after the direction phase, as both
// trials fill it: lane i's R point, its direction, its count k (0 when
// u rounded onto µ(r), which fails the lane) and, where k > 0, its S
// cell. The frozen trial loads a cell's corner structure for a corner
// lane only (gridSampler.laneCell).
type laneTrials struct {
	r    [laneN]geom.Point
	dir  [laneN]grid.Direction
	k    [laneN]int32
	cell [laneN]sCell
}

// candidates is the last phase of a trial group: each lane with k > 0
// draws one candidate of its cell — point i of drawRun's run for a
// uniform i in [0, k) in cases 1–2, sampleCorner's draw for a corner —
// and passes when the candidate lies in w(r). drawRun inlines here, so
// a case 1–2 lane makes one call, to draw i.
func (lt *laneTrials) candidates(lg *laneGroup, half float64, rnd *rng.RNG, sc *cornerScratch) {
	for i, k := range lt.k {
		lg.ok[i] = false
		if k == 0 {
			continue
		}
		w := geom.Window(lt.r[i], half)
		s, ok := geom.Point{}, true
		if d := lt.dir[i]; d.Case() != 3 {
			s = drawRun(&lt.cell[i].cell, d, k, rnd.Intn(int(k)))
		} else {
			s, ok = lt.cell[i].sampleCorner(d, k, w, rnd, sc)
		}
		lg.pair[i] = geom.Pair{R: lt.r[i], S: s}
		lg.ok[i] = ok && w.Contains(s) // else an empty slot or an out-of-window candidate
	}
}

// pick maps index i in [0, k), k being the exact count of scan corner
// d, to the i-th point scanRun meets inside w. It reads no random
// state, so a uniform i draws uniformly from the k points counted.
// (Cases 1–2 map i through drawRun, in candidates.)
func (c *sCell) pick(d grid.Direction, w geom.Rect, i int) (geom.Point, bool) {
	_, p, ok := scanRun(c.cell.XSorted, cornerFor(d), w, i)
	return p, ok
}

// cornerBytes is ci's footprint, 0 for a scan cell's nil.
func cornerBytes(ci cornerIndex) int {
	if ci == nil {
		return 0
	}
	return ci.sizeBytes()
}

// cornerScratch is one sampler handle's query buffers, reused across
// every corner structure the handle queries, so a warmed handle
// samples without allocating. It must not be shared between handles.
type cornerScratch struct {
	bbst bbst.Scratch
	kd   kdtree.Scratch
}

// cornerFor maps a case-3 grid direction to its BBST corner query.
func cornerFor(d grid.Direction) bbst.Corner {
	switch d {
	case grid.SouthWest:
		return bbst.SouthWest
	case grid.NorthWest:
		return bbst.NorthWest
	case grid.SouthEast:
		return bbst.SouthEast
	case grid.NorthEast:
		return bbst.NorthEast
	}
	panic("core: direction is not a corner")
}

// gridSampler is the shared pipeline of Algorithm 1, parameterized by
// the case-3 structure: its phase bodies (build, count), its batch
// loop and the Sampler methods base does not have. The BBST and GridKD
// samplers are thin wrappers around it, adding a constructor and
// Clone. It has no offline phase: the paper's one offline step,
// sorting S by x (which Table II credits for BBST's cheap
// pre-processing), is done per cell by the grid mapping, so
// GridMapTime counts it and PreprocessTime reads 0.
type gridSampler struct {
	*base
	// newCorner builds one cell's corner structure over its x-sorted
	// run for m S points: cellCorner for the BBST, which reads scanC
	// and bucketCap, a kd-tree for GridKD, which ignores them.
	newCorner func(run []geom.Point, m int, scanC float64, bucketCap int) (cornerIndex, error)
	scanC     float64 // c of the scan threshold T = c·⌈log₂ m⌉; 0 scans no cell

	g       *grid.Grid
	corners []cornerIndex // by cell Index, nil for a scan cell; shared by clones
	sc      cornerScratch // this handle's own
	lanes   laneGroup     // this handle's own lane group and carry

	tab  *alias.Table // alias over µ(r)
	recs countRecs    // by R index, at the width Count picked
	rows []cellRow    // by record row: one per occupied R cell
}

// countWidth is the integer type of a frozen count record's µ(r, d):
// uint16 when no count the build can produce exceeds 65,535
// (countBound), int32 otherwise.
type countWidth interface{ uint16 | int32 }

// pointRec is one R point's count record: µ(r, d) in the eight
// directions around its own cell (cnt[d-1] for d = West..NorthEast),
// which a trial scans cumulatively after µ(r, Center) to draw its
// direction (where the paper keeps a per-point alias A_r), and the
// index of the point's R cell in gridSampler.rows. µ(r, Center) is the
// size of r's own S cell for every r of the R cell, so it lives once,
// in the cell's row. A record is 20 B at uint16, 36 B at int32.
type pointRec[W countWidth] struct {
	cnt [grid.NumDirections - 1]W
	row int32
}

// total is µ(r) = µ(r, Center) + Σ_d cnt[d].
func (rec *pointRec[W]) total(center int32) int {
	mu := int(center)
	for _, c := range rec.cnt {
		mu += int(c)
	}
	return mu
}

// cellRow is one R cell's 3×3 block of S cells, by Direction: each
// cell's Index in the grid, -1 where the cell is empty, and µ(r, Center),
// the Center cell's size (0 where it is empty). Every R point of the
// cell shares it, so a trial reaches its S cell by indexing.
type cellRow struct {
	cells  [grid.NumDirections]int32
	center int32
}

// countRecs is the frozen sampler's count records by R index, at one
// width (pointRecs[uint16] or pointRecs[int32]): Count fills them, and
// the trial, Unfreeze and sizeBytes read them through it.
type countRecs interface {
	// fill writes the records of the points idx of one R cell from
	// their counts cnt (Center included, which the row holds), and
	// each point's µ(r) into mu.
	fill(idx []int32, cnt []dirCounts, row int32, mu []float64)
	// row is point i's row index.
	row(i int) int32
	// counts is point i's µ(r, d) in all nine directions, Center read
	// from its row in rows.
	counts(i int, rows []cellRow) dirCounts
	// tryGroup is gridSampler.tryGroup over these records.
	tryGroup(g *gridSampler, lg *laneGroup)
	sizeBytes() int
}

// pointRecs is the count records at width W.
type pointRecs[W countWidth] []pointRec[W]

func (rs pointRecs[W]) fill(idx []int32, cnt []dirCounts, row int32, mu []float64) {
	for j, i := range idx {
		rec := &rs[i]
		for d := range rec.cnt {
			rec.cnt[d] = W(cnt[j][d+1])
		}
		rec.row = row
		mu[i] = float64(cnt[j].total())
	}
}

func (rs pointRecs[W]) row(i int) int32 { return rs[i].row }

func (rs pointRecs[W]) counts(i int, rows []cellRow) dirCounts {
	rec := &rs[i]
	cnt := dirCounts{grid.Center: rows[rec.row].center}
	for d, c := range rec.cnt {
		cnt[d+1] = int32(c)
	}
	return cnt
}

func (rs pointRecs[W]) sizeBytes() int { return len(rs) * int(unsafe.Sizeof(pointRec[W]{})) }

// countBound bounds every µ(r, d) outside Center that Count can write:
// a cell's size for its edges and exact corners, and for a BBST corner
// the pair's bucket slots, NumBuckets × Cap, which round up to whole
// buckets and so can exceed the size.
func (g *gridSampler) countBound() int {
	bound := 0
	for i, ci := range g.corners {
		bound = max(bound, g.g.CellLen(int32(i)))
		if bc, ok := ci.(bbstCorner); ok {
			bound = max(bound, bc.pair.NumBuckets()*bc.pair.Cap())
		}
	}
	return bound
}

// build is the online data-structure building phase (GM): grid
// mapping of S, which sorts each cell's points by x and by y, plus one
// corner structure per cell by newCorner (BBST-BUILDING).
// Both the sorts and the corner builds are split by cell across
// cfg.Workers; each cell writes only its own slots.
func (g *gridSampler) build() error {
	var err error
	if g.g, err = grid.BuildWorkers(g.S, g.cfg.HalfExtent, g.cfg.Workers); err != nil {
		return err
	}
	g.corners = make([]cornerIndex, g.g.NumCells())
	errs := make([]error, len(g.corners))
	par.ForEach(len(g.corners), g.cfg.Workers, func(_, i int) {
		run := g.g.ByIndex(int32(i)).XSorted
		g.corners[i], errs[i] = g.newCorner(run, len(g.S), g.scanC, g.cfg.BucketCap)
	})
	for _, err := range errs {
		if err != nil {
			return err // the lowest-indexed failing cell's
		}
	}
	return nil
}

// count is the approximate range counting phase (UB): every R point's
// count record µ(r, d), one row of S cell indexes and µ(r, Center) per
// R cell, and the global alias A over µ(r). The records' width is
// picked first, from Build's cells and corners (countBound), so they
// are allocated once at that width. The R points are grouped by grid
// cell through a throwaway index permutation (R itself keeps its
// order, which the alias indexes), and each cell is counted in one
// batched muCounter pass against its 3×3 block, looked up once per
// cell (one search per row); the same lookup fills the cell's row. The
// cells are split across cfg.Workers, each worker with a muCounter of
// its own; a cell writes only its points' records and µ(r) and its own
// row, and Σµ and the alias are summed serially in R order, so the
// result does not depend on the split.
func (g *gridSampler) count() error {
	mcs := make([]muCounter, par.Limit(g.cfg.Workers))
	for w := range mcs {
		mcs[w].half = g.cfg.HalfExtent
	}
	keys, starts, perm := grid.GroupByCell(g.R, g.g.Side())
	// Rows go in the order R first touches their cells (Unfreeze's
	// slot layout): mark each cell's first point, meet them in order.
	rowOf, first := make([]int32, len(keys)), make([]int32, len(g.R))
	for c := range keys {
		first[perm[starts[c]]] = int32(c) + 1
	}
	next := int32(0)
	for _, c := range first {
		if c > 0 {
			rowOf[c-1], next = next, next+1
		}
	}
	if g.countBound() > math.MaxUint16 {
		g.recs = make(pointRecs[int32], len(g.R))
	} else {
		g.recs = make(pointRecs[uint16], len(g.R))
	}
	g.rows = make([]cellRow, len(keys))
	mu := make([]float64, len(g.R))
	par.ForEach(len(keys), g.cfg.Workers, func(w, c int) {
		mc := &mcs[w]
		idx := perm[starts[c]:starts[c+1]]
		mc.reset()
		for _, i := range idx {
			mc.add(g.R[i], dirCounts{})
		}
		row := rowOf[c]
		nb := g.neighborhood(keys[c], &g.rows[row].cells)
		mc.count(&nb, allDirs)
		g.rows[row].center = mc.cnt[0][grid.Center]
		g.recs.fill(idx, mc.cnt, row, mu)
	})
	total := 0.0
	for _, m := range mu {
		total += m
	}
	g.stats.MuSum = total
	if total == 0 {
		return ErrEmptyJoin
	}
	var err error
	g.tab, err = alias.New(mu)
	return err
}

// neighborhood looks up the S cells of the 3×3 block around cell k
// into row, and returns them with their corner structures.
func (g *gridSampler) neighborhood(k grid.Key, row *[grid.NumDirections]int32) (nb nbhd) {
	g.g.Block(k, row)
	for d, ci := range row {
		if ci >= 0 {
			nb[d] = g.cell(ci)
		}
	}
	return nb
}

// cell is the S cell of index ci with its corner structure.
func (g *gridSampler) cell(ci int32) sCell { return sCell{g.g.ByIndex(ci), g.corners[ci]} }

// laneCell is cell for a trial in direction d: only a corner
// direction reads the corner structure, so only a corner lane loads
// it.
func (g *gridSampler) laneCell(ci int32, d grid.Direction) sCell {
	c := sCell{cell: g.g.ByIndex(ci)}
	if d.Case() == 3 {
		c.corner = g.corners[ci]
	}
	return c
}

// groupByRow is a counting sort of the indexes 0..n-1 by row(i) in
// [0, rows): perm[starts[c]:starts[c+1]] holds row c's indexes,
// ascending.
func groupByRow(n, rows int, row func(i int) int32) (starts, perm []int32) {
	starts = make([]int32, rows+1)
	for i := range n {
		starts[row(i)+1]++
	}
	for c := range rows {
		starts[c+1] += starts[c]
	}
	next := slices.Clone(starts)
	perm = make([]int32, n)
	for i := range n {
		c := row(i)
		perm[next[c]] = int32(i)
		next[c]++
	}
	return starts, perm
}

// pickDir picks a trial's direction by a cumulative scan of the
// counts, µ(r, Center) first, then cnt[d-1] for the other directions
// d: the first d whose running sum exceeds u, for u uniform in [0, µ(r)).
// It returns d and its count k; k is 0 when rounding put u at the sum,
// and the caller rejects the trial. The frozen trial, at either record
// width, and the mutable trial share it.
func pickDir[W countWidth](center int32, cnt *[grid.NumDirections - 1]W, u float64) (grid.Direction, int32) {
	acc := float64(center)
	if u < acc {
		return grid.Center, center
	}
	for d, c := range cnt {
		if c == 0 {
			continue
		}
		acc += float64(c)
		if u < acc {
			return grid.Direction(d + 1), int32(c)
		}
	}
	return 0, 0
}

// drawRun returns point i of the k > 0 points of cell c that match a
// case 1 or 2 direction d, k being the exact count the trial's record
// holds; a uniform i in [0, k) draws one uniformly. They are the run
// Cell.Matching(d, w) counts, found without a search: all of XSorted
// for Center, its first k for East and last k for West, and likewise
// through YOrder for North and South.
func drawRun(c *grid.Cell, d grid.Direction, k int32, i int) geom.Point {
	switch d {
	case grid.West:
		i += len(c.XSorted) - int(k)
	case grid.South:
		i = int(c.YOrder[len(c.YOrder)-int(k)+i])
	case grid.North:
		i = int(c.YOrder[i])
	}
	return c.XSorted[i]
}

// tryGroup runs one group of trials (lines 10–15 of Algorithm 1),
// each phase across all laneN lanes before the next: every lane's
// weighted r from the alias over µ(r); its row index, then its
// direction by a cumulative scan of the row's µ(r, Center) and r's
// count record, then its S cell from the row, so no trial does a key
// lookup; a uniform candidate of that cell and the window test
// (laneTrials.candidates: a BBST bucket slot, or one of the k points
// the record counts for cases 1–2 and a scanned corner). Every pair of
// J passes one trial with probability exactly 1/Σµ. The one loop runs
// at either record width (pointRecs.tryGroup).
func (g *gridSampler) tryGroup(lg *laneGroup) error {
	g.recs.tryGroup(g, lg)
	return nil
}

func (rs pointRecs[W]) tryGroup(g *gridSampler, lg *laneGroup) {
	var ri, row [laneN]int32
	var lt laneTrials
	for i := range ri {
		ri[i] = int32(g.tab.Sample(g.rng))
	}
	for i := range ri {
		row[i] = rs[ri[i]].row
	}
	for i := range ri {
		rec, center := &rs[ri[i]], g.rows[row[i]].center
		lt.dir[i], lt.k[i] = pickDir(center, &rec.cnt, g.rng.Float64()*float64(rec.total(center)))
	}
	for i := range ri {
		if lt.k[i] > 0 {
			// A positive count means the cell exists: its row entry is >= 0.
			lt.r[i] = g.R[ri[i]]
			lt.cell[i] = g.laneCell(g.rows[row[i]].cells[lt.dir[i]], lt.dir[i])
		}
	}
	lt.candidates(lg, g.cfg.HalfExtent, g.rng, &g.sc)
}

// sampleInto is the sampling phase behind SampleInto and Next: one
// phase check per call, then the lane loop over tryGroup.
func (g *gridSampler) sampleInto(dst []geom.Pair) (int, error) {
	if err := g.advance(phaseCounted); err != nil {
		return 0, err
	}
	return drawLanes(dst, &g.lanes, g.cfg.maxRejects(), &g.stats, g.tryGroup, g.accept)
}

// Next draws one uniform independent join sample through the batch
// loop.
func (g *gridSampler) Next() (geom.Pair, error) {
	var p [1]geom.Pair
	_, err := g.sampleInto(p[:])
	return p[0], err
}

// Sample draws t samples through the batch loop.
func (g *gridSampler) Sample(t int) ([]geom.Pair, error) { return sampleN(g, g.base, t) }

// Reseed is base.Reseed plus dropping the handle's carry, so it draws
// what a fresh handle with that seed would.
func (g *gridSampler) Reseed(seed uint64) {
	g.base.Reseed(seed)
	g.lanes = laneGroup{}
}

// cloneGrid derives an independent gridSampler over the same immutable
// structures (grid, corner structures, aliases): fresh base (split
// RNG, fresh stats) and its own corner scratch.
func (g *gridSampler) cloneGrid() (gridSampler, error) {
	nb, err := g.cloneBase()
	if err != nil {
		return gridSampler{}, err
	}
	return gridSampler{
		base:      nb,
		newCorner: g.newCorner,
		scanC:     g.scanC,
		g:         g.g,
		corners:   g.corners,
		tab:       g.tab,
		recs:      g.recs,
		rows:      g.rows,
	}, nil
}

// SizeBytes sums the pipeline structures (Fig. 4): grid, corner
// structures (and their 16-byte slots), global alias, the count record
// per R point (20 bytes at uint16, 36 at int32) and the 40-byte row
// per R cell.
func (g *gridSampler) SizeBytes() int {
	total := 16 * len(g.corners)
	if g.g != nil {
		total += g.g.SizeBytes()
	}
	for _, ci := range g.corners {
		total += cornerBytes(ci)
	}
	if g.tab != nil {
		total += g.tab.SizeBytes()
	}
	if g.recs != nil {
		total += g.recs.sizeBytes()
	}
	return total + 40*len(g.rows)
}
