package direct

import (
	"slices"
	"testing"

	"dtr/dist"
)

// evalSet is a fixed evaluation set: every metric kind at a few
// policies, all at the model's default factors.
func evalSet(t *testing.T, s *Solver) []float64 {
	t.Helper()
	var out []float64
	for _, pol := range [][2]int{{0, 0}, {5, 2}, {16, 0}, {3, 8}} {
		all, err := s.All(16, 8, pol[0], pol[1], 40)
		if err != nil {
			t.Fatal(err)
		}
		mean, err := s.MeanTime(16, 8, pol[0], pol[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, all.Mean, all.QoS, all.Reliability, all.TailMass, mean)
	}
	return out
}

// TestViewDiagnosticsArePure: what a view reports — values, counts and
// maxima — is what a freshly built solver reports after the same
// evaluation set, whatever another view of the same tables did first
// and however many factor chains the tables hold.
func TestViewDiagnosticsArePure(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewPareto(2.5, 1), 0, 0, 1)
	cfg := Config{N: 1 << 11, Horizon: 200, MaxQueue: [2]int{24, 24}}

	fresh, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantVals, wantDiag := evalSet(t, fresh), fresh.Diagnostics()

	tables, err := NewTables(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Another request got there first: replicated evaluations on an
	// extended view, which fill spectra, transfer laws and a factor-2
	// chain the plain view must not see.
	other, built := tables.View(2, nil)
	if built != 1 || tables.factors() != 2 {
		t.Fatalf("view(2) built %d chains, tables hold %d, want 1 and 2", built, tables.factors())
	}
	for _, fac := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
		if _, err := other.MeanTimeRepl(16, 8, 5, 2, fac); err != nil {
			t.Fatal(err)
		}
	}
	evalSet(t, other)

	view, built := tables.View(0, nil)
	if built != 0 {
		t.Fatalf("plain view built %d chains on tables that had them", built)
	}
	if d := view.Diagnostics(); d.Folds != 0 || d.Evaluations != 0 || d.MaxFactor != 0 {
		t.Fatalf("new view reports another view's work: %+v", d)
	}
	if got := evalSet(t, view); !slices.Equal(got, wantVals) {
		t.Fatalf("view values %v, fresh solver %v", got, wantVals)
	}
	if got := view.Diagnostics(); got != wantDiag {
		t.Fatalf("view diagnostics\n%+v\nfresh solver\n%+v", got, wantDiag)
	}
	if _, err := view.MeanTimeRepl(16, 8, 5, 2, [2]int{2, 1}); err == nil {
		t.Fatal("a factor-1 view evaluated factor 2 because the tables happen to hold it")
	}
}

// TestTablesExtendBitIdentical: tables grown 1 → 3 hold the lattices a
// one-shot MaxFactor 3 build holds, bit for bit, and a view of them
// reports the same build audit.
func TestTablesExtendBitIdentical(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewExponential(1), 60, 45, 1)
	cfg := Config{N: 1 << 10, Horizon: 150, MaxQueue: [2]int{12, 9}}

	oneShotCfg := cfg
	oneShotCfg.MaxFactor = 3
	oneShot, err := NewSolver(m, oneShotCfg)
	if err != nil {
		t.Fatal(err)
	}

	tables, err := NewTables(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tables.factors() != 1 {
		t.Fatalf("base tables hold %d factors, want 1", tables.factors())
	}
	before := tables.Bytes()
	grown, built := tables.View(3, nil)
	if built != 2 || grown.MaxFactor() != 3 {
		t.Fatalf("view(3) built %d chains for max factor %d, want 2 and 3", built, grown.MaxFactor())
	}
	if after := tables.Bytes(); after != 3*before {
		t.Fatalf("tables account %d bytes after tripling %d", after, before)
	}
	for f := range oneShot.chains {
		for k := 0; k < 2; k++ {
			want, got := oneShot.chains[f].pre[k], grown.chains[f].pre[k]
			if len(got) != len(want) {
				t.Fatalf("factor %d server %d: %d prefixes, want %d", f+1, k, len(got), len(want))
			}
			for j := range want {
				if got[j].Tail != want[j].Tail || !slices.Equal(got[j].M, want[j].M) {
					t.Fatalf("factor %d server %d prefix %d differs from the one-shot build", f+1, k, j)
				}
			}
		}
	}
	if got, want := grown.Diagnostics(), oneShot.Diagnostics(); got != want {
		t.Fatalf("extended diagnostics\n%+v\none-shot\n%+v", got, want)
	}
	got, err := grown.AllRepl(8, 6, 3, 1, 40, [2]int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oneShot.AllRepl(8, 6, 3, 1, 40, [2]int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	got.Mean, want.Mean = 0, 0 // NaN with failure-prone servers
	if got != want {
		t.Fatalf("extended tables evaluate %+v, one-shot %+v", got, want)
	}
}
