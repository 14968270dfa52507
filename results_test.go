package dtr_test

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// resultsTable returns the rows of the table under the heading that
// starts with title in results/NAME.txt (each row its whitespace-split
// fields, header and rule skipped) and the note lines that follow it.
func resultsTable(t *testing.T, name, title string) (rows [][]string, notes []string) {
	t.Helper()
	b, err := os.ReadFile("results/" + name)
	if err != nil {
		t.Fatal(err)
	}
	in := false
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			if in {
				return rows, notes
			}
			in = strings.HasPrefix(line, "== "+title)
		case !in || line == "" || strings.HasPrefix(line, "---"):
		case strings.HasPrefix(line, "note: "):
			notes = append(notes, line)
		default:
			rows = append(rows, strings.Fields(line))
		}
	}
	if !in {
		t.Fatalf("results/%s has no table %q", name, title)
	}
	return rows, notes
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFig3aOptimum: the printed Fig. 3(a) table of mean execution times
// is smallest at (L12=32, L21=0), 152.18 s, and its optimum note says so.
// The paper reports 140.11 s at (32, 1); EXPERIMENTS.md records the gap.
func TestFig3aOptimum(t *testing.T) {
	rows, notes := resultsTable(t, "fig3.txt", "Fig. 3(a)")
	header := rows[0] // L12  L21=0  L21=1 ...
	best, at := math.Inf(1), ""
	for _, row := range rows[1:] {
		for j, cell := range row[1:] {
			if v := parseFloat(t, cell); v < best {
				best, at = v, fmt.Sprintf("(L12=%s, %s)", row[0], header[j+1])
			}
		}
	}
	if best != 152.18 || at != "(L12=32, L21=0)" {
		t.Fatalf("table minimum %.2f at %s, want 152.18 at (L12=32, L21=0)", best, at)
	}
	want := "note: optimum: T̄* = 152.18 s at (L12=32, L21=0)"
	if len(notes) == 0 || !strings.HasPrefix(notes[0], want) {
		t.Fatalf("optimum note %q, want it to start %q", notes, want)
	}
}

// TestFig4cTheoryInsideMonteCarloCI: on every Fig. 4(c) row the
// theoretical reliability lies within the Monte-Carlo estimate's 95 %
// half-width (the largest gap is 0.0116 against 0.0141, at L12 = 16).
func TestFig4cTheoryInsideMonteCarloCI(t *testing.T) {
	rows, _ := resultsTable(t, "fig4c.txt", "Fig. 4(c)")
	if len(rows) < 2 || strings.Join(rows[0][:4], " ") != "L12 Theory MC sim" {
		t.Fatalf("unexpected Fig. 4(c) header %v", rows[0])
	}
	for _, row := range rows[1:] {
		theory, mc, ci := parseFloat(t, row[1]), parseFloat(t, row[2]), parseFloat(t, row[3])
		if gap := math.Abs(theory - mc); gap > ci {
			t.Errorf("L12=%s: |theory %.4f − MC %.4f| = %.4f exceeds the MC ±95%% %.4f", row[0], theory, mc, gap, ci)
		}
	}
}

// tableModel splits a results row whose model name may hold spaces
// ("Pareto 1") into the name and the cols columns after it.
func tableModel(t *testing.T, row []string, cols int) (string, []string) {
	t.Helper()
	if len(row) <= cols {
		t.Fatalf("row %v has fewer than %d columns after the model", row, cols)
	}
	return strings.Join(row[:len(row)-cols], " "), row[len(row)-cols:]
}

// TestTable1SevereDelayDegradesMore: the paper's Table I ordering. The
// exponential-derived policy costs every non-exponential family more of
// its mean under severe delay than under low delay, and costs the
// Exponential model nothing under either (both degradation columns read
// 0.00). The closest pair is Pareto 2, 0.01 % against 0.15 %.
func TestTable1SevereDelayDegradesMore(t *testing.T) {
	degr := map[string][2]float64{}
	for i, delay := range []string{"low", "severe"} {
		rows, _ := resultsTable(t, "table1.txt", "Table I ("+delay+" delay)")
		if len(rows) < 2 || rows[0][0] != "Model" {
			t.Fatalf("unexpected Table I (%s delay) header %v", delay, rows[0])
		}
		for _, row := range rows[1:] {
			model, c := tableModel(t, row, 8) // policy, T̄*, T̄@exp, degr, policy, QoS*, QoS@exp, degr
			if model == "Exponential" && (c[3] != "0.00" || c[7] != "0.00") {
				t.Errorf("%s delay: the Exponential row degrades by %s%% (mean) and %s%% (QoS), want 0.00", delay, c[3], c[7])
			}
			d := degr[model]
			d[i] = parseFloat(t, c[3])
			degr[model] = d
		}
	}
	if len(degr) != 5 {
		t.Fatalf("Table I has models %v, want the paper's five", degr)
	}
	for model, d := range degr {
		if model != "Exponential" && !(d[1] > d[0]) {
			t.Errorf("%s: severe-delay mean degradation %.2f%% is not above the low-delay %.2f%%", model, d[1], d[0])
		}
	}
}

// TestTable2Mean: in every row of Table II's mean, the benchmark run
// from the best allocation lies below both Algorithm-1 columns with the
// 95 % half-widths on the unfavourable side (the tightest row, Pareto 2:
// 134.16 + 5.231 against 232.16 − 10.679), and the Markovian
// approximation's prediction error lies inside the paper's 5–45 % band
// (16.64–28.82 %). The reliability table's prediction errors, 1.9–3.9 %,
// fall below that band and are not claimed.
func TestTable2Mean(t *testing.T) {
	rows, _ := resultsTable(t, "table2.txt", "Table II (severe delay, 5 servers, M=200): mean")
	if len(rows) != 5 || rows[0][0] != "Model" {
		t.Fatalf("want a header and four model rows, got %v", rows)
	}
	for _, row := range rows[1:] {
		model, c := tableModel(t, row, 8) // Alg1, ±, Alg1(Exp), ±, ExpPredicts, predErr, Benchmark, ±
		v := make([]float64, len(c))
		for i, s := range c {
			v[i] = parseFloat(t, s)
		}
		bench := v[6] + v[7]
		for _, alg := range [][2]float64{{v[0], v[1]}, {v[2], v[3]}} {
			if !(bench < alg[0]-alg[1]) {
				t.Errorf("%s: benchmark %.2f + %.3f is not below Algorithm 1's %.2f − %.3f", model, v[6], v[7], alg[0], alg[1])
			}
		}
		if v[5] < 5 || v[5] > 45 {
			t.Errorf("%s: prediction error %.2f%% outside the paper's 5–45%% band", model, v[5])
		}
	}
}
