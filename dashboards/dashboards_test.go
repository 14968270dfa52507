package dashboards

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// metricRef finds dtr_* metric names inside PromQL expressions and
// other readers' text.
var metricRef = regexp.MustCompile(`dtr_[a-z0-9_]+`)

// metricDecl finds dtr_* metric names declared as Go string literals,
// double-quoted or backtick-quoted, with any {label="…"} block after the
// name. A name that ends in an underscore is a prefix, not a family. A
// doc comment that quotes a family counts too, so one that cites a
// deleted family fails the inventory until it is corrected.
var metricDecl = regexp.MustCompile("\"(dtr_[a-z0-9_]*[a-z0-9])(?:\\{[^}]*\\})?\"|`(dtr_[a-z0-9_]*[a-z0-9])(?:\\{[^}]*\\})?`")

// declaredIn returns the metric names the Go source src declares (the
// base names of labelled metrics built via obs.Name, or spelled with
// their label block).
func declaredIn(src string) []string {
	var out []string
	for _, m := range metricDecl.FindAllStringSubmatch(src, -1) {
		out = append(out, m[1]+m[2])
	}
	return out
}

// walkRepo calls visit with the contents of every file under the
// repository root whose slash-separated path keep accepts, skipping .git
// and testdata.
func walkRepo(t *testing.T, keep func(path string) bool, visit func(data string)) {
	t.Helper()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !keep(filepath.ToSlash(path)) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		visit(string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredMetrics scans the repository's non-test Go sources outside
// bench/, which only reads metrics, for every metric name the codebase
// registers.
func declaredMetrics(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	walkRepo(t, func(path string) bool {
		return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") &&
			!strings.HasPrefix(path, "../bench/")
	}, func(data string) {
		for _, name := range declaredIn(data) {
			out[name] = true
		}
	})
	if len(out) == 0 {
		t.Fatal("found no metric declarations in the repository")
	}
	return out
}

// panelQueries returns every dashboard panel's queries, keyed by
// dashboard/panel title, after checking each dashboard's shape.
func panelQueries(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, name := range Dashboards {
		data, err := FS.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var dash struct {
			UID    string `json:"uid"`
			Title  string `json:"title"`
			Panels []struct {
				Title   string `json:"title"`
				Type    string `json:"type"`
				Targets []struct {
					Expr string `json:"expr"`
				} `json:"targets"`
			} `json:"panels"`
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		if err := dec.Decode(&dash); err != nil {
			t.Fatalf("%s: invalid JSON: %v", name, err)
		}
		if dash.UID == "" || dash.Title == "" {
			t.Errorf("%s: uid and title required", name)
		}
		if len(dash.Panels) == 0 {
			t.Fatalf("%s: no panels", name)
		}
		for _, p := range dash.Panels {
			if p.Title == "" || p.Type == "" {
				t.Errorf("%s: panel missing title or type: %+v", name, p)
			}
			if len(p.Targets) == 0 {
				t.Errorf("%s: panel %q has no queries", name, p.Title)
			}
			for _, tgt := range p.Targets {
				if tgt.Expr == "" {
					t.Errorf("%s: panel %q has an empty query", name, p.Title)
					continue
				}
				out[name+"/"+p.Title] = append(out[name+"/"+p.Title], tgt.Expr)
			}
		}
	}
	return out
}

// checkExpr verifies every metric an expression references is one the
// codebase registers (histogram series reduce to their base name).
func checkExpr(t *testing.T, where, expr string, declared map[string]bool) {
	t.Helper()
	refs := metricRef.FindAllString(expr, -1)
	if len(refs) == 0 {
		t.Errorf("%s: query %q references no dtr_ metric", where, expr)
	}
	for _, ref := range refs {
		base := ref
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if !declared[base] {
			t.Errorf("%s: query references unknown metric %q", where, ref)
		}
	}
}

func TestDashboardsValid(t *testing.T) {
	declared := declaredMetrics(t)
	for where, exprs := range panelQueries(t) {
		for _, expr := range exprs {
			checkExpr(t, where, expr, declared)
		}
	}
}

func TestMetricCensus(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []string
	}{
		{`obs.NewCounter("dtr_a_total")`, []string{"dtr_a_total"}},
		{"obs.NewCounter(`dtr_b_total`)", []string{"dtr_b_total"}},
		{"obs.NewCounter(`dtr_c_total{kind=\"group\"}`)", []string{"dtr_c_total"}},
		{`obs.NewCounter("dtr_d_total{kind=\"fn\"}")`, []string{"dtr_d_total"}},
		{`r.Counter(obs.Name("dtr_e_total", "code", c))`, []string{"dtr_e_total"}},
		{`prefixes := []string{"dtr_solver_", "dtr_direct_"}`, nil},
		{`// dtr_f_total in a comment, or "a dtr_g_total in prose"`, nil},
	} {
		if got := declaredIn(c.src); !slices.Equal(got, c.want) {
			t.Errorf("declaredIn(%s) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestEveryMetricIsRead requires a reader for every family the
// codebase registers: a dashboard panel or alert query, the benchmark
// (bench/ or BENCHMARK.json), or a _test.go file outside this package
// that names it. The CLI summary and /debug/solver print every family,
// so they read none in particular.
func TestEveryMetricIsRead(t *testing.T) {
	read := map[string]bool{}
	mark := func(text string) {
		for _, ref := range metricRef.FindAllString(text, -1) {
			read[ref] = true
		}
	}
	for _, exprs := range panelQueries(t) {
		for _, expr := range exprs {
			mark(expr)
		}
	}
	for _, expr := range alertQueries(t) {
		mark(expr)
	}
	walkRepo(t, func(path string) bool {
		return strings.HasPrefix(path, "../bench/") || path == "../BENCHMARK.json" ||
			strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "../dashboards/")
	}, mark)
	for name := range declaredMetrics(t) {
		if !read[name] && !read[name+"_bucket"] && !read[name+"_sum"] && !read[name+"_count"] {
			t.Errorf("no panel, alert, benchmark or test reads %s: delete it or give it a reader", name)
		}
	}
}

// alertQueries returns the expr of every rule in the alert file.
func alertQueries(t *testing.T) []string {
	t.Helper()
	data, err := FS.ReadFile(AlertRules)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if expr, ok := strings.CutPrefix(strings.TrimSpace(line), "expr:"); ok {
			out = append(out, expr)
		}
	}
	return out
}

func TestDashboardsCoverRequiredSignals(t *testing.T) {
	// The observability contract: the bundle must visualize serve
	// latency, cache hit ratio, admission rejections, solver throughput,
	// the adapt loop's drift/replan activity, and the solver-health
	// signals (mass residuals, tail mass, grid-error probe, convergence
	// outcomes, drift-detector margins).
	var all strings.Builder
	for _, name := range Dashboards {
		data, err := FS.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(data)
	}
	for _, metric := range []string{
		"dtr_serve_latency_seconds",
		"dtr_serve_verb_latency_seconds",
		"dtr_serve_cache_hits_total",
		"dtr_serve_queue_wait_seconds",
		"dtr_direct_evals_total",
		"dtr_policy_sweep_evaluations_total",
		"dtr_adapt_drift_events_total",
		"dtr_adapt_replans_total",
		"dtr_solver_fold_mass_residual",
		"dtr_solver_tail_mass",
		"dtr_solver_folds_total",
		"dtr_solver_probe_error",
		"dtr_solver_probe_runs_total",
		"dtr_policy_alg1_capped_total",
		"dtr_policy_sweep_coverage",
		"dtr_adapt_drift_ks",
		"dtr_adapt_drift_rel_mean",
		"dtr_ingest_events_total",
		"dtr_ingest_parse_errors_total",
		"dtr_ingest_drops_total",
		"dtr_ingest_stale_channels",
		"dtr_ingest_flush_seconds",
		"dtr_cluster_forward_total",
		"dtr_cluster_forward_seconds",
		"dtr_cluster_forward_failures_total",
		"dtr_cluster_peers_alive",
		"dtr_cluster_ring_share",
		"dtr_serve_forwarded_total",
		"dtr_serve_cache_bytes",
		"dtr_serve_snapshot_loaded_total",
		"dtr_serve_warm_pulled_total",
		"dtr_serve_solver_cache_hits_total",
		"dtr_serve_solver_cache_misses_total",
		"dtr_serve_solver_cache_admitted_total",
		"dtr_serve_solver_cache_extended_total",
		"dtr_serve_solver_cache_evictions_total",
		"dtr_serve_solver_cache_entries",
		"dtr_serve_solver_cache_bytes",
		"dtr_solver_builds_total",
	} {
		if !strings.Contains(all.String(), metric) {
			t.Errorf("no dashboard panel queries %s", metric)
		}
	}
	if !strings.Contains(all.String(), `code=~\"429|504\"`) && !strings.Contains(all.String(), "429|504") {
		t.Error("no dashboard panel shows admission rejections (429/504)")
	}
}

func TestAlertRulesValid(t *testing.T) {
	declared := declaredMetrics(t)
	data, err := FS.ReadFile(AlertRules)
	if err != nil {
		t.Fatal(err)
	}
	// Line-based validation (the stdlib has no YAML parser): every rule
	// needs an alert name, an expr, a severity and a summary, and every
	// expr may only reference registered metrics.
	var (
		alerts     []string
		exprs      int
		severities int
		summaries  int
	)
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "- alert:"):
			name := strings.TrimSpace(strings.TrimPrefix(trimmed, "- alert:"))
			if name == "" {
				t.Error("rule with empty alert name")
			}
			alerts = append(alerts, name)
		case strings.HasPrefix(trimmed, "expr:"):
			exprs++
			checkExpr(t, "alerts.yml", strings.TrimPrefix(trimmed, "expr:"), declared)
		case strings.HasPrefix(trimmed, "severity:"):
			severities++
		case strings.HasPrefix(trimmed, "summary:"):
			summaries++
		}
	}
	if len(alerts) < 5 {
		t.Errorf("only %d alert rules (%v); the bundle should cover latency, errors, admission, solver and adapt", len(alerts), alerts)
	}
	if exprs != len(alerts) || severities != len(alerts) || summaries != len(alerts) {
		t.Errorf("rules=%d exprs=%d severities=%d summaries=%d; every rule needs expr, severity and summary",
			len(alerts), exprs, severities, summaries)
	}
	seen := map[string]bool{}
	for _, a := range alerts {
		if seen[a] {
			t.Errorf("duplicate alert name %s", a)
		}
		seen[a] = true
	}
}
