package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Hooks for the external test package: its fixtures (srjtest) import
// the root package, which imports this one.

// FrozenBuild is what a grid sampler's Build and Count leave behind:
// every R point's count record (Recs, at the width Count picked;
// Narrow when that is uint16), every R cell's row of S cell indexes
// and µ(r, Center), each S cell's corner structure as its kind and
// sizeBytes, and Σµ.
type FrozenBuild struct {
	Recs    any
	Narrow  bool
	Rows    []cellRow
	Corners []string
	MuSum   float64
}

// FrozenBuildOf returns the build of s, a counted *BBSTSampler or
// *GridKD.
func FrozenBuildOf(s Sampler) FrozenBuild {
	var g *gridSampler
	switch s := s.(type) {
	case *BBSTSampler:
		g = &s.gridSampler
	case *GridKD:
		g = &s.gridSampler
	default:
		panic(fmt.Sprintf("core: %T is not a grid sampler", s))
	}
	_, narrow := g.recs.(pointRecs[uint16])
	fb := FrozenBuild{Recs: g.recs, Narrow: narrow, Rows: g.rows, MuSum: g.stats.MuSum}
	for _, c := range g.corners {
		fb.Corners = append(fb.Corners, fmt.Sprintf("%T %d", c, cornerBytes(c)))
	}
	return fb
}

// SlotLayout is the R side of a mutable index version as slots: each
// R cell's key and its rcells list, the point each slot holds, and the
// slots rids lists under each ID.
type SlotLayout struct {
	Side  float64
	Keys  []grid.Key
	Lists [][]int32
	Slots []geom.Point
	IDs   map[int32][]int32
}

// SlotLayoutOf returns the slot layout of m's index version.
func SlotLayoutOf(m *Mutable) SlotLayout {
	ix := m.idx
	sl := SlotLayout{Side: ix.side, IDs: make(map[int32][]int32)}
	ix.rcells.Range(func(k grid.Key, slots []int32) bool {
		sl.Keys, sl.Lists = append(sl.Keys, k), append(sl.Lists, slots)
		return true
	})
	for i := range ix.slots.Len() {
		sl.Slots = append(sl.Slots, ix.slots.get(i).pt)
	}
	ix.rids.Range(func(id int32, slots []int32) bool {
		sl.IDs[id] = slots
		return true
	})
	return sl
}
