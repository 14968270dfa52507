package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Pareto is the Pareto Type I distribution with scale Xm > 0 (the minimum
// value) and shape Alpha > 0:
//
//	S(x) = (Xm/x)^Alpha  for x ≥ Xm.
//
// The paper's empirical characterization found testbed service times to be
// Pareto; its "Pareto 1" model uses Alpha > 2 (finite variance) and
// "Pareto 2" uses 1 < Alpha ≤ 2 (infinite variance), both with means
// matched to the exponential baseline.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// NewPareto returns a Pareto distribution with the given shape and the
// given mean. The mean exists only for Alpha > 1: mean = Xm·Alpha/(Alpha−1).
func NewPareto(alpha, mean float64) Pareto {
	if alpha <= 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("dist: Pareto with mean needs alpha > 1, got %g", alpha))
	}
	if mean <= 0 || math.IsNaN(mean) {
		panic(fmt.Sprintf("dist: Pareto mean must be positive, got %g", mean))
	}
	return Pareto{Xm: mean * (alpha - 1) / alpha, Alpha: alpha}
}

func (d Pareto) PDF(x float64) float64 {
	if x < d.Xm {
		return 0
	}
	return d.Alpha * math.Pow(d.Xm, d.Alpha) / math.Pow(x, d.Alpha+1)
}

func (d Pareto) CDF(x float64) float64 {
	if x <= d.Xm {
		return 0
	}
	return 1 - math.Pow(d.Xm/x, d.Alpha)
}

// CDFs replaces every x of xs with d.CDF(x), bit for bit. Where the host
// runs paretoCDFLanes, that computes four points at a time; this loop
// takes the points it leaves.
func (d Pareto) CDFs(xs []float64) {
	lanes := paretoLanes && d.Xm > 0 && d.Alpha > 1 && d.Alpha < 1<<63
	yi, yf := powSplit(d.Alpha)
	for i := 0; i < len(xs); {
		if lanes {
			i += paretoCDFLanes(xs[i:], d.Xm, yf, yi)
		}
		// The quad the lanes stopped at, or the points past the last quad.
		for end := min(i+4, len(xs)); i < end; i++ {
			xs[i] = d.CDF(xs[i])
		}
	}
}

// powSplit splits an exponent y > 0 as math.Pow does: its integer part
// and its fraction, a fraction above ½ taken from the next integer.
func powSplit(y float64) (yi int64, yf float64) {
	i, f := math.Modf(y)
	if f > 0.5 {
		f--
		i++
	}
	return int64(i), f
}

// paretoLanes reports whether CDFs runs paretoCDFLanes: set at start-up
// where the host has its instructions, cleared by tests to hold the
// lanes to the scalar loop.
var paretoLanes bool

func (d Pareto) Survival(x float64) float64 {
	if x <= d.Xm {
		return 1
	}
	return math.Pow(d.Xm/x, d.Alpha)
}

func (d Pareto) Quantile(p float64) float64 {
	if !checkProb(p) {
		return math.NaN()
	}
	if p == 1 {
		return math.Inf(1)
	}
	return d.Xm / quantilePow(1-p, 1/d.Alpha)
}

func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Xm * d.Alpha / (d.Alpha - 1)
}

func (d Pareto) Var() float64 {
	if d.Alpha <= 2 {
		return math.Inf(1)
	}
	a := d.Alpha
	return d.Xm * d.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

func (d Pareto) Sample(r *rand.Rand) float64 { return d.Quantile(r.Float64()) }

func (d Pareto) Support() (lo, hi float64) { return d.Xm, math.Inf(1) }

// Aged exploits the Pareto self-similarity: conditioned on {T > a} with
// a ≥ Xm, T is Pareto(a, Alpha), so the residual T − a is a Lomax law,
// represented here as an aged view with closed-form survival. For a < Xm
// the conditioning is vacuous below the support and the residual is the
// original law displaced by a.
func (d Pareto) Aged(a float64) Dist {
	switch {
	case a < 0 || math.IsNaN(a):
		panic(fmt.Sprintf("dist: negative age %g", a))
	case a == 0:
		return d
	case a <= d.Xm:
		return agedPareto{scale: d.Xm, alpha: d.Alpha, age: a}
	default:
		return agedPareto{scale: a, alpha: d.Alpha, age: a}
	}
}

func (d Pareto) meanExcess(x float64) float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	if x <= d.Xm {
		return (d.Xm - x) + d.Xm/(d.Alpha-1)
	}
	// ∫_x^∞ (Xm/t)^α dt = Xm^α x^{1-α} / (α-1).
	return math.Pow(d.Xm, d.Alpha) * math.Pow(x, 1-d.Alpha) / (d.Alpha - 1)
}

func (d Pareto) String() string {
	return fmt.Sprintf("Pareto(xm=%g, alpha=%g)", d.Xm, d.Alpha)
}

// agedPareto is the residual law of a Pareto clock of age `age`: the law
// of T − age given T > age, where T ~ Pareto(xm, alpha) and
// scale = max(xm, age). All formulas are closed-form.
type agedPareto struct {
	scale float64 // effective Pareto scale of the conditional law of T
	alpha float64
	age   float64
}

func (d agedPareto) PDF(x float64) float64 {
	if x+d.age < d.scale {
		return 0
	}
	return d.alpha * math.Pow(d.scale, d.alpha) / math.Pow(x+d.age, d.alpha+1)
}

func (d agedPareto) CDF(x float64) float64 { return 1 - d.Survival(x) }

func (d agedPareto) Survival(x float64) float64 {
	if x <= 0 || x+d.age <= d.scale {
		return 1
	}
	return math.Pow(d.scale/(x+d.age), d.alpha)
}

func (d agedPareto) Quantile(p float64) float64 {
	if !checkProb(p) {
		return math.NaN()
	}
	if p == 1 {
		return math.Inf(1)
	}
	x := d.scale/quantilePow(1-p, 1/d.alpha) - d.age
	if x < 0 {
		return 0
	}
	return x
}

func (d agedPareto) Mean() float64 {
	if d.alpha <= 1 {
		return math.Inf(1)
	}
	// E[T|T>age] − age with T|T>age ~ Pareto(scale, alpha), plus the gap
	// below the support when age < scale.
	return d.scale*d.alpha/(d.alpha-1) - d.age
}

func (d agedPareto) Var() float64 {
	if d.alpha <= 2 {
		return math.Inf(1)
	}
	a := d.alpha
	return d.scale * d.scale * a / ((a - 1) * (a - 1) * (a - 2))
}

func (d agedPareto) Sample(r *rand.Rand) float64 { return d.Quantile(r.Float64()) }

func (d agedPareto) Support() (lo, hi float64) {
	lo = d.scale - d.age
	if lo < 0 {
		lo = 0
	}
	return lo, math.Inf(1)
}

func (d agedPareto) Aged(a float64) Dist {
	switch {
	case a < 0 || math.IsNaN(a):
		panic(fmt.Sprintf("dist: negative age %g", a))
	case a == 0:
		return d
	}
	na := d.age + a
	scale := d.scale
	if na > scale {
		scale = na
	}
	return agedPareto{scale: scale, alpha: d.alpha, age: na}
}

func (d agedPareto) meanExcess(x float64) float64 {
	if d.alpha <= 1 {
		return math.Inf(1)
	}
	lo, _ := d.Support()
	if x < lo {
		return (lo - x) + d.meanExcess(lo)
	}
	// ∫_x^∞ (scale/(t+age))^α dt = scale^α (x+age)^{1-α}/(α-1).
	return math.Pow(d.scale, d.alpha) * math.Pow(x+d.age, 1-d.alpha) / (d.alpha - 1)
}

func (d agedPareto) String() string {
	return fmt.Sprintf("AgedPareto(scale=%g, alpha=%g, age=%g)", d.scale, d.alpha, d.age)
}
