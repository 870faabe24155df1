package core

import "fmt"

// Hooks for the external test package: its fixtures (srjtest) import
// the root package, which imports this one.

// FrozenBuild is what a grid sampler's Build and Count leave behind:
// every R point's count record, every R cell's row of S cell indexes,
// each S cell's corner structure as its kind and sizeBytes, and Σµ.
type FrozenBuild struct {
	Recs    []pointRec
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
	fb := FrozenBuild{Recs: g.recs, Rows: g.rows, MuSum: g.stats.MuSum}
	for _, c := range g.corners {
		fb.Corners = append(fb.Corners, fmt.Sprintf("%T %d", c, c.sizeBytes()))
	}
	return fb
}
