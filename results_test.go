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
