package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"testing"
)

// pinnedStream is one row of testdata/sample_streams_pinned.json: a
// family's seeded draw stream as commit e29363c produced it — the last
// one whose inverse-transform families drew through the shared
// sampleInv(d Dist, r) helper. First holds the leading draws' IEEE-754
// bits, SHA256 digests all pinnedDraws of them. The file is not
// regenerable from the code under test on purpose.
type pinnedStream struct {
	Family string   `json:"family"`
	First  []string `json:"first"`
	SHA256 string   `json:"sha256"`
}

const pinnedDraws = 10000

// pinnedFamilies lists every family with a Sample of its own, the
// inverse-transform ones (Pareto, its aged law, Weibull, MinOfK) among
// them.
func pinnedFamilies() []struct {
	name string
	d    Dist
} {
	return []struct {
		name string
		d    Dist
	}{
		{"pareto", NewPareto(2.5, 2)},
		{"pareto-aged", NewPareto(2.5, 2).Aged(1.75)},
		{"weibull", NewWeibull(1.7, 3)},
		{"minofk-pareto", NewMinOfK(NewPareto(2.614, 4.858), 3)},
		{"minofk-gamma", NewMinOfK(NewShiftedGamma(0.5, 2, 2), 2)},
		{"exponential", NewExponential(1.5)},
		{"shifted-exponential", NewShiftedExponential(0.2, 0.7)},
		{"gamma", NewGamma(2.3, 1)},
		{"gamma-boost", NewGamma(0.6, 1)},
		{"shifted-gamma", NewShiftedGamma(0.5, 2, 2)},
		{"hyperexp", NewHyperExponential2(2, 4)},
		{"lognormal", NewLogNormal(0.7, 1)},
		{"uniform", NewUniform(0.4, 1.2)},
		{"slowdown-pareto", NewSlowdown(NewPareto(2.5, 1), 0.1, 5)},
	}
}

// sampleStream draws the family's pinned stream and renders it the way
// the file stores it.
func sampleStream(name string, d Dist) pinnedStream {
	r := rand.New(rand.NewPCG(0x9e3779b97f4a7c15, uint64(len(name))))
	out := pinnedStream{Family: name}
	h := sha256.New()
	var b [8]byte
	for i := 0; i < pinnedDraws; i++ {
		bits := math.Float64bits(d.Sample(r))
		if i < 4 {
			out.First = append(out.First, fmt.Sprintf("%016x", bits))
		}
		binary.LittleEndian.PutUint64(b[:], bits)
		h.Write(b[:])
	}
	out.SHA256 = hex.EncodeToString(h.Sum(nil))
	return out
}

// TestSampleStreamsPinned: every family's seeded stream is, bit for bit,
// the stream the parent drew — Sample calling its own Quantile is the
// same float as the boxed sampleInv detour it replaces.
func TestSampleStreamsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/sample_streams_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned []pinnedStream
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	want := map[string]pinnedStream{}
	for _, p := range pinned {
		want[p.Family] = p
	}
	fams := pinnedFamilies()
	if len(want) != len(fams) {
		t.Fatalf("%d pinned streams for %d families", len(want), len(fams))
	}
	for _, f := range fams {
		got, w := sampleStream(f.name, f.d), want[f.name]
		if got.SHA256 != w.SHA256 || fmt.Sprint(got.First) != fmt.Sprint(w.First) {
			t.Errorf("%s: stream %v %s, pinned %v %s", f.name, got.First, got.SHA256, w.First, w.SHA256)
		}
	}
}

// TestSampleAllocatesNothing: a draw is arithmetic on the receiver — no
// family boxes itself into an interface on the way to its Quantile.
func TestSampleAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var sink float64
	for _, f := range pinnedFamilies() {
		d := f.d
		if n := testing.AllocsPerRun(200, func() { sink += d.Sample(r) }); n != 0 {
			t.Errorf("%s: Sample allocates %v objects per draw", f.name, n)
		}
	}
	_ = sink
}
