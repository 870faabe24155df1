package core

import (
	"cmp"
	"slices"

	"repro/internal/alias"
	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/rng"
)

// cornerIndex is the per-cell structure that answers the 2-sided
// (case 3) corner queries: the two BBSTs of the paper, or the per-cell
// kd-tree of the Fig. 9 ablation. It is immutable once built: every
// clone of a sampler shares the same corner structures, and the query
// buffers live in the calling handle's cornerScratch.
type cornerIndex interface {
	// mu returns the (upper-bound) count of cell points matching the
	// corner constraint of w.
	mu(c bbst.Corner, w geom.Rect, sc *cornerScratch) int
	// sample draws one candidate slot for the corner; ok is false on
	// an empty slot. The caller still verifies window membership.
	sample(c bbst.Corner, w geom.Rect, r *rng.RNG, sc *cornerScratch) (geom.Point, bool)
	// sizeBytes estimates the structure footprint.
	sizeBytes() int
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

// gridSampler is the shared three-phase pipeline of Algorithm 1,
// parameterized by the case-3 structure. The BBST and GridKD samplers
// are thin wrappers around it.
type gridSampler struct {
	*base
	newCorner func(cellPoints []geom.Point, m int) cornerIndex

	sortedS []geom.Point // copy of S sorted by x (offline phase)
	g       *grid.Grid
	corners []cornerIndex // by grid.Cell.Index; shared by clones
	sc      cornerScratch // this handle's own

	tab       *alias.Table  // alias over µ(r)
	cellAlias []alias.Small // A_r: per-point alias over the 9 cells
}

// Preprocess sorts a copy of S by x — the only offline work the
// BBST pipeline needs (Table II notes this is why its pre-processing
// is cheaper than building a kd-tree).
func (g *gridSampler) Preprocess() error {
	if g.state >= phasePreprocessed {
		return g.err
	}
	timed(&g.stats.PreprocessTime, func() {
		g.sortedS = append([]geom.Point(nil), g.S...)
		slices.SortFunc(g.sortedS, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
	})
	g.state = phasePreprocessed
	return nil
}

// Build is the online data-structure building phase (GM): grid
// mapping of S plus per-cell corner structures (BBST-BUILDING).
func (g *gridSampler) Build() error {
	if err := ensure(g, g.base, phasePreprocessed); err != nil {
		return err
	}
	if g.state >= phaseBuilt {
		return g.err
	}
	var buildErr error
	timed(&g.stats.GridMapTime, func() {
		g.g, buildErr = grid.Build(g.sortedS, g.cfg.HalfExtent)
		if buildErr != nil {
			return
		}
		g.corners = make([]cornerIndex, 0, g.g.NumCells())
		m := len(g.S)
		// Cells runs in Index order, so corners[c.Index] is c's.
		g.g.Cells(func(c *grid.Cell) {
			g.corners = append(g.corners, g.newCorner(c.XSorted, m))
		})
	})
	if buildErr != nil {
		g.err = buildErr
		return buildErr
	}
	g.state = phaseBuilt
	return nil
}

// Count is the approximate range counting phase (UB): µ(r, d) for every
// R point, the per-point cell alias A_r, and the global alias A over
// µ(r). The R points are grouped by grid cell through a throwaway index
// permutation (R itself keeps its order, which the alias indexes), and
// each cell is counted in one batched muCounter pass against its 3×3
// block, looked up once per cell.
func (g *gridSampler) Count() error {
	if err := ensure(g, g.base, phaseBuilt); err != nil {
		return err
	}
	if g.state >= phaseCounted {
		return g.err
	}
	var buildErr error
	timed(&g.stats.UpperBoundTime, func() {
		// Counts land in R order, so the alias pass below writes
		// cellAlias sequentially.
		cnt := make([]dirCounts, len(g.R))
		mc := muCounter{half: g.cfg.HalfExtent}
		keys, starts, perm := groupByCell(g.R, g.g.Side())
		for ci, k := range keys {
			idx := perm[starts[ci]:starts[ci+1]]
			mc.reset()
			for _, i := range idx {
				mc.add(g.R[i], dirCounts{})
			}
			nb := g.neighborhood(k)
			mc.count(&nb, allDirs)
			for j, i := range idx {
				cnt[i] = mc.cnt[j]
			}
		}
		mu := make([]float64, len(g.R))
		g.cellAlias = make([]alias.Small, len(g.R))
		total := 0.0
		var weights [grid.NumDirections]float64
		for i := range cnt {
			sum := 0.0
			for d, c := range cnt[i] {
				weights[d] = float64(c)
				sum += weights[d]
			}
			mu[i] = sum
			total += sum
			g.cellAlias[i].Reset(weights[:])
		}
		g.stats.MuSum = total
		if total == 0 {
			buildErr = ErrEmptyJoin
			return
		}
		g.tab, buildErr = alias.New(mu)
	})
	if buildErr != nil {
		g.err = buildErr
		return buildErr
	}
	g.state = phaseCounted
	return nil
}

// neighborhood looks up the S cells of the 3×3 block around cell k,
// and the corner structures of its corners.
func (g *gridSampler) neighborhood(k grid.Key) (nb nbhd) {
	for d := grid.Direction(0); d < grid.NumDirections; d++ {
		c := g.g.Cell(k.Neighbor(d))
		nb.cells[d] = c
		if c != nil && d.Case() == 3 {
			nb.corners[d] = g.corners[c.Index]
		}
	}
	return nb
}

// groupByCell groups the points by grid cell: keys lists the occupied
// cells in order of first point, and perm[starts[c]:starts[c+1]] holds
// the indexes of cell keys[c]'s points, ascending.
func groupByCell(pts []geom.Point, side float64) (keys []grid.Key, starts, perm []int32) {
	index := make(map[grid.Key]int32)
	cellOf := make([]int32, len(pts))
	starts = []int32{0}
	for i, p := range pts {
		k := grid.KeyFor(p.X, p.Y, side)
		c, ok := index[k]
		if !ok {
			c = int32(len(keys))
			index[k] = c
			keys = append(keys, k)
			starts = append(starts, 0)
		}
		cellOf[i] = c
		starts[c+1]++
	}
	for c := range keys {
		starts[c+1] += starts[c]
	}
	next := slices.Clone(starts)
	perm = make([]int32, len(pts))
	for i, c := range cellOf {
		perm[next[c]] = int32(i)
		next[c]++
	}
	return keys, starts, perm
}

// sampleDir draws one candidate point from cell c in direction d.
// Cases 1 and 2 are exact, so the candidate always lies in w; case 3
// may return an empty slot or an out-of-window point, which the
// caller rejects.
func (g *gridSampler) sampleDir(c *grid.Cell, d grid.Direction, w geom.Rect) (geom.Point, bool) {
	if d.Case() == 3 {
		return g.corners[c.Index].sample(cornerFor(d), w, g.rng, &g.sc)
	}
	return sampleRun(c.Matching(d, w), g.rng)
}

// sampleRun draws one point of run uniformly; ok is false when it is
// empty.
func sampleRun(run []geom.Point, r *rng.RNG) (geom.Point, bool) {
	if len(run) == 0 {
		return geom.Point{}, false
	}
	return run[r.Intn(len(run))], true
}

// tryOnce is one iteration of the sampling phase (lines 10–15 of
// Algorithm 1): weighted r, weighted cell, uniform slot, accept iff
// the slot holds a point of w(r). Only the drawn direction's cell is
// looked up. Every pair of J is accepted with probability exactly
// 1/Σµ per trial.
func (g *gridSampler) tryOnce() (geom.Pair, bool, error) {
	g.stats.Iterations++
	ri := g.tab.Sample(g.rng)
	ca := &g.cellAlias[ri]
	if ca.Len() == 0 {
		return geom.Pair{}, false, nil // µ(r) == 0; alias weight 0 makes this unreachable
	}
	r := g.R[ri]
	w := g.window(r)
	d := grid.Direction(ca.Sample(g.rng))
	c := g.g.Cell(g.g.KeyAt(r.X, r.Y).Neighbor(d))
	if c == nil {
		return geom.Pair{}, false, nil // zero-weight direction; defensive
	}
	s, ok := g.sampleDir(c, d, w)
	if !ok || !w.Contains(s) {
		return geom.Pair{}, false, nil // empty slot or out-of-window candidate
	}
	p := geom.Pair{R: r, S: s}
	if !g.accept(p) {
		return geom.Pair{}, false, nil
	}
	g.stats.Samples++
	return p, true, nil
}

// sampleInto is the sampling phase behind SampleInto and Next: one
// phase check per call, then the batch loop over tryOnce.
func (g *gridSampler) sampleInto(dst []geom.Pair) (int, error) {
	if err := ensure(g, g.base, phaseCounted); err != nil {
		return 0, err
	}
	return fillBatch(dst, g.cfg.maxRejects(), &g.stats.SampleTime, g.tryOnce)
}

// next draws one sample through the batch loop.
func (g *gridSampler) next() (geom.Pair, error) {
	var p [1]geom.Pair
	_, err := g.sampleInto(p[:])
	return p[0], err
}

// cloneGrid derives an independent gridSampler over the same immutable
// structures (grid, corner structures, aliases): fresh base (split
// RNG, fresh stats) and its own corner scratch.
func (g *gridSampler) cloneGrid() (gridSampler, error) {
	if err := ensure(g, g.base, phaseCounted); err != nil {
		return gridSampler{}, err
	}
	nb, err := g.base.cloneBase()
	if err != nil {
		return gridSampler{}, err
	}
	return gridSampler{
		base:      nb,
		newCorner: g.newCorner,
		sortedS:   g.sortedS,
		g:         g.g,
		corners:   g.corners,
		tab:       g.tab,
		cellAlias: g.cellAlias,
	}, nil
}

// sizeBytes sums the pipeline structures: grid, corner structures,
// global alias, and per-point cell aliases.
func (g *gridSampler) sizeBytes() int {
	total := 0
	if g.g != nil {
		total += g.g.SizeBytes()
	}
	for _, ci := range g.corners {
		total += ci.sizeBytes()
	}
	if g.tab != nil {
		total += g.tab.SizeBytes()
	}
	total += 96 * len(g.cellAlias)
	total += 24 * len(g.sortedS)
	return total
}
