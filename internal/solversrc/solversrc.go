// Package solversrc is the seam through which an in-module caller (the
// planning service's solver-table tier) hands a dtr.System the source of
// its canonical solver, without package dtr exporting a symbol that
// names an internal type. Package dtr installs Attach at start-up.
package solversrc

import (
	"dtr/internal/core"
	"dtr/internal/direct"
)

// Func builds, or finds, the canonical solver for a model and lattice
// configuration. direct.NewSolver is the one every System uses unless
// another is attached.
type Func func(*core.Model, direct.Config) (*direct.Solver, error)

// Attach makes sys (a *dtr.System) obtain its solver from src.
var Attach func(sys any, src Func)
