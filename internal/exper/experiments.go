package exper

// Experiment is one experiment cmd/dtrlab runs by name. Run computes its
// tables in print order; on a failure it returns the tables made before
// it with the error.
type Experiment struct {
	Name string
	Run  func(Fidelity) ([]*Table, error)
}

// Experiments lists every experiment in the order dtrlab's "all" runs
// them.
var Experiments = []Experiment{
	{"fig1", fig12(true)},
	{"fig2", fig12(false)},
	{"table1", seq(at(Table1, LowDelay), at(Table1, SevereDelay))},
	{"fig3", Fig3},
	{"table2", seq(at(Table2, true), at(Table2, false))},
	{"fig4ab", Fig4AB},
	{"fig4c", seq(Fig4C)},
	{"ablations", seq(AblationGridStep, AblationK, AblationDelaySweep)},
	{"staleness", seq(Staleness)},
	{"extensions", seq(Extensions)},
}

// fig12 is Fig. 1 (reliable servers) or Fig. 2: per delay, the policy
// sweep and then its Markovian-model error.
func fig12(reliable bool) func(Fidelity) ([]*Table, error) {
	var gens []func(Fidelity) (*Table, error)
	for _, d := range []Delay{LowDelay, SevereDelay} {
		for _, g := range []func(Delay, bool, Fidelity) (*Table, error){Fig12, MarkovianError} {
			gens = append(gens, func(f Fidelity) (*Table, error) { return g(d, reliable, f) })
		}
	}
	return seq(gens...)
}

// seq runs one-table generators in order, up to the first failure.
func seq(gens ...func(Fidelity) (*Table, error)) func(Fidelity) ([]*Table, error) {
	return func(fid Fidelity) ([]*Table, error) {
		var out []*Table
		for _, g := range gens {
			t, err := g(fid)
			if err != nil {
				return out, err
			}
			out = append(out, t)
		}
		return out, nil
	}
}

// at binds a generator's first argument.
func at[T any](g func(T, Fidelity) (*Table, error), x T) func(Fidelity) (*Table, error) {
	return func(fid Fidelity) (*Table, error) { return g(x, fid) }
}
