// Package nserver implements the paper's §IV future-work proposal:
// analytic *bounds* on the metrics of an n-server canonical scenario with
// multiple task groups converging on the same server.
//
// With several groups heading to one server the exact finish-time law
// requires integrating over every arrival order ("the analysis must
// consider all possible orders of task-arrival to yield an exact
// characterization"); the paper suggests bounding it by assuming all the
// reallocated tasks arrive "as a single batch". Delaying every arrival at
// a work-conserving server can only postpone its finish, and advancing
// them can only hasten it, so:
//
//	batch at min(Z_1..Z_k)  →  pathwise lower bound on the finish time,
//	batch at max(Z_1..Z_k)  →  pathwise upper bound,
//
// which translate into two-sided bounds on all three metrics. The bounds
// collapse to the exact value whenever no server receives more than one
// group — in particular for every two-server canonical scenario — which
// the tests exploit against internal/direct, and bracket Monte-Carlo
// estimates otherwise.
package nserver

import (
	"fmt"
	"math"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/gridfn"
)

// Metrics is one side of the bound.
type Metrics struct {
	Mean        float64
	QoS         float64
	Reliability float64
	TailMass    float64
}

// Bounds brackets the true metrics: Optimistic assumes every batch
// arrives at the earliest of its groups' transfer times, Pessimistic at
// the latest. The true mean lies in [Optimistic.Mean, Pessimistic.Mean];
// QoS and Reliability lie in [Pessimistic.*, Optimistic.*].
type Bounds struct {
	Optimistic  Metrics
	Pessimistic Metrics
	// Exact reports that no server receives more than one group, so the
	// two sides coincide (up to lattice rounding) and equal the exact
	// canonical-scenario value.
	Exact bool
}

// Solver evaluates batch-arrival bounds on a fixed lattice.
type Solver struct {
	model *core.Model
	dx    float64
	n     int
	pre   [][]*gridfn.Lattice
}

// Config sizes the lattice.
type Config struct {
	// GridN is the lattice length (default 4096).
	GridN int
	// Horizon is the covered time span (0 = auto from the means).
	Horizon float64
	// MaxQueue bounds any single server's total load (own + incoming).
	MaxQueue int
}

// NewSolver precomputes the per-server service-sum laws.
func NewSolver(m *core.Model, cfg Config) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Replication folds into the service laws (min-of-k; see core).
	m = m.EffectiveModel()
	if cfg.MaxQueue <= 0 {
		return nil, fmt.Errorf("nserver: Config.MaxQueue must be positive")
	}
	n := cfg.GridN
	if n == 0 {
		n = 4096
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		worst := 0.0
		for _, d := range m.Service {
			if w := float64(cfg.MaxQueue) * d.Mean(); w > worst {
				worst = w
			}
		}
		horizon = 2.5 * (worst + m.Transfer(cfg.MaxQueue, 0, min(1, m.N()-1)).Mean())
	}
	s := &Solver{model: m, dx: horizon / float64(n-1), n: n}
	for _, d := range m.Service {
		base := gridfn.FromCDF(d.CDF, s.dx, n)
		s.pre = append(s.pre, base.Prefixes(cfg.MaxQueue))
	}
	return s, nil
}

// Evaluate computes the bounds for the canonical scenario: initial
// allocation plus one DTR policy executed at t = 0. deadline ≤ 0 skips
// the QoS (reported as NaN).
func (s *Solver) Evaluate(initial []int, p core.Policy, deadline float64) (Bounds, error) {
	st, err := core.NewState(s.model, initial, p)
	if err != nil {
		return Bounds{}, err
	}
	n := s.model.N()

	// Collect incoming groups per destination.
	incoming := make([][]core.Group, n)
	for _, g := range st.Groups {
		incoming[g.Dst] = append(incoming[g.Dst], g)
	}

	b := Bounds{Exact: true}
	for _, gs := range incoming {
		if len(gs) > 1 {
			b.Exact = false
		}
	}

	optMax := make([]*gridfn.Lattice, 0, n)
	pesMax := make([]*gridfn.Lattice, 0, n)
	for k := 0; k < n; k++ {
		own := st.Queue[k]
		batch := 0
		var zOpt, zPes *gridfn.Lattice
		for _, g := range incoming[k] {
			batch += g.Tasks
			z := gridfn.FromCDF(s.model.Transfer(g.Tasks, g.Src, g.Dst).CDF, s.dx, s.n)
			if zOpt == nil {
				zOpt, zPes = z, z
			} else {
				zOpt = zOpt.MinIndep(z)
				zPes = zPes.MaxIndep(z)
			}
		}
		if own+batch >= len(s.pre[k]) {
			return Bounds{}, fmt.Errorf("nserver: server %d load %d exceeds MaxQueue=%d", k, own+batch, len(s.pre[k])-1)
		}
		// The sides differ only where several groups race to one server.
		fOpt := s.finish(k, own, batch, zOpt)
		fPes := fOpt
		if len(incoming[k]) > 1 {
			fPes = s.finish(k, own, batch, zPes)
		}
		optMax = append(optMax, fOpt)
		pesMax = append(pesMax, fPes)
	}

	b.Optimistic = s.metrics(optMax, deadline)
	b.Pessimistic = b.Optimistic
	if !b.Exact {
		b.Pessimistic = s.metrics(pesMax, deadline)
	}
	return b, nil
}

// finish builds F = max(S_own, Z) + S_batch (Z nil when no groups). The
// result may be a shared prefix table: callers only read it.
func (s *Solver) finish(k, own, batch int, z *gridfn.Lattice) *gridfn.Lattice {
	if z == nil {
		return s.pre[k][own]
	}
	return s.pre[k][own].MaxIndep(z).Convolve(s.pre[k][batch])
}

// metrics folds the per-server finish laws into the three metrics.
func (s *Solver) metrics(finishes []*gridfn.Lattice, deadline float64) Metrics {
	var out Metrics
	out.Reliability = 1
	out.QoS = 1
	maxCDF := make([]float64, s.n)
	for i := range maxCDF {
		maxCDF[i] = 1
	}
	for k, f := range finishes {
		out.TailMass += f.Tail
		cdf := f.CDF()
		for i := range maxCDF {
			maxCDF[i] *= cdf[i]
		}
		y := s.model.Failure[k]
		if _, never := y.(dist.Never); !never {
			out.Reliability *= f.ExpectSurvival(y.Survival, 0)
			if deadline > 0 {
				var q float64
				for i, m := range f.M {
					x := float64(i) * f.Dx
					if x > deadline {
						break
					}
					if m != 0 {
						q += m * y.Survival(x)
					}
				}
				out.QoS *= q
			}
		} else if deadline > 0 {
			out.QoS *= f.CDFAt(deadline)
		}
	}
	if deadline <= 0 {
		out.QoS = math.NaN()
	}
	if s.model.Reliable() {
		var mean float64
		for i := range maxCDF {
			mean += 1 - maxCDF[i]
		}
		out.Mean = mean * s.dx
	} else {
		out.Mean = math.NaN()
	}
	return out
}
