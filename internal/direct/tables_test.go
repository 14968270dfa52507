package direct

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dtr/dist"
	"dtr/internal/gridfn"
)

// evalSet is a fixed evaluation set: every metric kind at a few
// policies, all at the model's default factors.
func evalSet(t *testing.T, s *Solver) []float64 {
	t.Helper()
	var out []float64
	for _, pol := range [][2]int{{0, 0}, {5, 2}, {16, 0}, {3, 8}} {
		all, err := s.metrics(Pair(16, 8, pol[0], pol[1], nil), 40)
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
		if _, err := other.Eval(Pair(16, 8, 5, 2, fac[:]), MetricMean, 0); err != nil {
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
	if _, err := view.Eval(Pair(16, 8, 5, 2, []int{2, 1}), MetricMean, 0); err == nil {
		t.Fatal("a factor-1 view evaluated factor 2 because the tables happen to hold it")
	}
}

// oneShot folds server k's factor-fac chain the way an eager build did:
// one gridfn.PrefixesMetered call to the queue bound.
func oneShot(s *Solver, k, fac int) ([]*gridfn.Lattice, gridfn.Meter) {
	var meter gridfn.Meter
	eff := dist.NewMinOfK(s.t.model.Service[k], fac)
	return gridfn.FromCDF(eff.CDF, s.t.dx, s.t.n).PrefixesMetered(s.t.maxQueue[k], &meter), meter
}

// requireChain reads server k's factor-fac prefixes through the view, in
// the given order, and demands the one-shot lattices bit for bit.
func requireChain(t *testing.T, s *Solver, k, fac int, order []int) {
	t.Helper()
	want, _ := oneShot(s, k, fac)
	w := gridfn.NewWork(s.t.n)
	for _, j := range order {
		got := s.prefix(s.chains[fac-1], k, j, w)
		if got.Tail != want[j].Tail || !slices.Equal(got.M, want[j].M) {
			t.Fatalf("factor %d server %d prefix %d differs from the one-shot build", fac, k, j)
		}
	}
}

// TestTablesExtendBitIdentical: tables grow along two axes — factor
// chains are appended, a chain is folded forward to the longest queue
// read — and along both they hold the lattices of a one-shot build, bit
// for bit, whoever read what first; a view reports the one-shot build
// audit however little it read.
func TestTablesExtendBitIdentical(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewExponential(1), 60, 45, 1)
	cfg := Config{N: 1 << 10, Horizon: 150, MaxQueue: [2]int{12, 9}}

	tables, err := NewTables(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tables.factors() != 1 {
		t.Fatalf("base tables hold %d factors, want 1", tables.factors())
	}
	empty := tables.Bytes()

	// The queue dimension: a chain read at j, then at j′ > j, then below.
	view, _ := tables.View(0, nil)
	requireChain(t, view, 0, 1, []int{4, 9, 2, 12})
	if n := view.chains[0].built[0].Load(); n != 13 {
		t.Fatalf("server 0 folded to %d slots after reading prefix 12", n)
	}
	if n := view.chains[0].built[1].Load(); n != 1 {
		t.Fatalf("server 1 folded to %d slots before anyone read it", n)
	}
	read := tables.Bytes()
	if want := empty + 12*8*int64(cfg.N); read != want {
		t.Fatalf("tables account %d bytes after 12 folds on %d, want %d", read, empty, want)
	}

	// The factor dimension: two more chains, nothing folded yet.
	grown, built := tables.View(3, nil)
	if built != 2 || grown.MaxFactor() != 3 {
		t.Fatalf("view(3) built %d chains for max factor %d, want 2 and 3", built, grown.MaxFactor())
	}
	if after := tables.Bytes(); after != read+2*empty {
		t.Fatalf("tables account %d bytes after two empty chains on %d, want %d", after, read, read+2*empty)
	}
	// Two views read the same chains in opposite orders.
	other, _ := tables.View(3, nil)
	for fac := 1; fac <= 3; fac++ {
		requireChain(t, grown, 1, fac, []int{1, 5, 9})
		requireChain(t, other, 1, fac, []int{9, 5, 1})
		requireChain(t, other, 0, fac, []int{12, 6, 0})
		requireChain(t, grown, 0, fac, []int{0, 6, 12})
	}

	// A view that read one point reports the audit of the declared chains.
	fresh, err := NewSolver(m, Config{N: cfg.N, Horizon: cfg.Horizon, MaxQueue: cfg.MaxQueue, MaxFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.metrics(Pair(8, 6, 3, 1, []int{3, 2}), 40)
	if err != nil {
		t.Fatal(err)
	}
	var audit gridfn.Meter
	for fac := 1; fac <= 3; fac++ {
		for k := 0; k < 2; k++ {
			_, meter := oneShot(fresh, k, fac)
			mergeMeter(&audit, meter)
		}
	}
	d := fresh.Diagnostics()
	if d.BuildFolds != 3*(12+9) || d.BuildFolds != audit.Folds ||
		d.BuildMassResidualMax != audit.MaxResidual || d.BuildNegMassMax != audit.MaxNegMass {
		t.Fatalf("diagnostics after one point\n%+v\none-shot audit\n%+v", d, audit)
	}
	if gd := grown.Diagnostics(); gd.BuildFolds != d.BuildFolds ||
		gd.BuildMassResidualMax != d.BuildMassResidualMax || gd.BuildNegMassMax != d.BuildNegMassMax {
		t.Fatalf("extended diagnostics\n%+v\nfresh\n%+v", gd, d)
	}
	want, err := grown.metrics(Pair(8, 6, 3, 1, []int{3, 2}), 40)
	if err != nil {
		t.Fatal(err)
	}
	got.Mean, want.Mean = 0, 0 // NaN with failure-prone servers
	if got != want {
		t.Fatalf("extended tables evaluate %+v, fresh ones %+v", want, got)
	}
}

// TestTablesBytesChargesQueueSlots: a longer queue bound costs the tables
// at least its extra slots at their real size — a prefix pointer and a
// spectrum cell each — before anything is read.
func TestTablesBytesChargesQueueSlots(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewExponential(1), 60, 45, 1)
	var bytes [2]int64
	for i, bound := range []int{12, 40} {
		tables, err := NewTables(m, Config{N: 1 << 10, Horizon: 150, MaxQueue: [2]int{bound, bound}})
		if err != nil {
			t.Fatal(err)
		}
		bytes[i] = tables.Bytes()
	}
	slot := int64(unsafe.Sizeof((*gridfn.Lattice)(nil)) + unsafe.Sizeof(cell[*gridfn.Spectrum]{}))
	if slots := int64(2 * (40 - 12)); bytes[1]-bytes[0] < slots*slot {
		t.Fatalf("%d more slots account %d more bytes, want at least %d (%d a slot)", slots, bytes[1]-bytes[0], slots*slot, slot)
	}
}

// TestFirstReadsRace: goroutines racing their first reads of one chain,
// each through its own view, all get the one lattice a slot ever holds.
func TestFirstReadsRace(t *testing.T) {
	m := model2(dist.NewPareto(2.5, 2), dist.NewExponential(1), 0, 0, 1)
	tables, err := NewTables(m, Config{N: 1 << 9, Horizon: 150, MaxQueue: [2]int{24, 16}})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var seen [readers][2][]*gridfn.Lattice
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view, _ := tables.View(0, nil)
			w := gridfn.NewWork(tables.n)
			for k := 0; k < 2; k++ {
				bound := tables.maxQueue[k]
				seen[g][k] = make([]*gridfn.Lattice, bound+1)
				for i := 0; i <= bound; i++ {
					j := (i*7 + g*5) % (bound + 1) // every slot, a different order per reader
					seen[g][k][j] = view.prefix(view.chains[0], k, j, w)
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		for k := 0; k < 2; k++ {
			if !slices.Equal(seen[g][k], seen[0][k]) {
				t.Fatalf("reader %d saw other lattices than reader 0 at server %d", g, k)
			}
		}
	}
	view, _ := tables.View(0, nil)
	requireChain(t, view, 0, 1, []int{24, 1})
	requireChain(t, view, 1, 1, []int{16, 1})
}
