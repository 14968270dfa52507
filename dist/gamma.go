package dist

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dtr/internal/specfn"
)

// Gamma is the gamma distribution with shape K > 0 and rate Rate > 0
// (mean K/Rate). Sums of independent exponential stages — pipeline-style
// service — are gamma, and the paper's testbed transfer times were fitted
// by its shifted variant.
type Gamma struct {
	K    float64 // shape
	Rate float64
}

// NewGamma returns a gamma distribution with the given shape and mean.
func NewGamma(shape, mean float64) Gamma {
	if shape <= 0 || math.IsNaN(shape) {
		panic(fmt.Sprintf("dist: gamma shape must be positive, got %g", shape))
	}
	if mean <= 0 || math.IsNaN(mean) {
		panic(fmt.Sprintf("dist: gamma mean must be positive, got %g", mean))
	}
	return Gamma{K: shape, Rate: shape / mean}
}

func (d Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case d.K < 1:
			return math.Inf(1)
		case d.K == 1:
			return d.Rate
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(d.K)
	return math.Exp(d.K*math.Log(d.Rate) + (d.K-1)*math.Log(x) - d.Rate*x - lg)
}

func (d Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return specfn.GammaP(d.K, d.Rate*x)
}

func (d Gamma) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return specfn.GammaQ(d.K, d.Rate*x)
}

func (d Gamma) Quantile(p float64) float64 {
	if !checkProb(p) {
		return math.NaN()
	}
	return specfn.GammaPInv(d.K, p) / d.Rate
}

func (d Gamma) Mean() float64 { return d.K / d.Rate }

func (d Gamma) Var() float64 { return d.K / (d.Rate * d.Rate) }

// Sample draws by the Marsaglia–Tsang squeeze method for K ≥ 1 and the
// boost K < 1 → K+1 transformation, which is much faster than inverse
// transform through the incomplete-gamma inverse.
func (d Gamma) Sample(r *rand.Rand) float64 {
	k := d.K
	boost := 1.0
	if k < 1 {
		boost = math.Pow(r.Float64(), 1/k)
		k++
	}
	dd := k - 1.0/3
	c := 1 / math.Sqrt(9*dd)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return boost * dd * v / d.Rate
		}
	}
}

func (d Gamma) Support() (lo, hi float64) { return 0, math.Inf(1) }

// Aged uses the generic conditional wrapper: the gamma family is not
// closed under residual conditioning (except K = 1, the exponential).
func (d Gamma) Aged(a float64) Dist {
	if d.K == 1 {
		return Exponential{Rate: d.Rate}.Aged(a)
	}
	return newAged(d, a)
}

func (d Gamma) meanExcess(x float64) float64 {
	if x <= 0 {
		return d.Mean() - x
	}
	// ∫_x^∞ S(t)dt = (K/Rate)·Q(K+1, Rate·x) − x·Q(K, Rate·x) ... using
	// the identity E[(T−x)+] = E[T]·Q(K+1, Rate x) − x·Q(K, Rate x).
	return d.Mean()*specfn.GammaQ(d.K+1, d.Rate*x) - x*specfn.GammaQ(d.K, d.Rate*x)
}

func (d Gamma) String() string {
	return fmt.Sprintf("Gamma(k=%g, rate=%g)", d.K, d.Rate)
}

// ShiftedGamma is a gamma distribution displaced by Shift ≥ 0. The paper's
// empirical characterization of the testbed found task-transfer and
// failure-notice transfer times to follow shifted gamma laws — the shift
// captures the non-zero minimum end-to-end propagation delay that an
// exponential cannot represent.
type ShiftedGamma struct {
	Shift float64
	G     Gamma
}

// NewShiftedGamma returns a gamma law with the given shape and rate
// displaced by shift.
func NewShiftedGamma(shift, shape, rate float64) ShiftedGamma {
	if shift < 0 || math.IsNaN(shift) {
		panic(fmt.Sprintf("dist: negative shift %g", shift))
	}
	if shape <= 0 || rate <= 0 {
		panic(fmt.Sprintf("dist: invalid shifted gamma shape=%g rate=%g", shape, rate))
	}
	return ShiftedGamma{Shift: shift, G: Gamma{K: shape, Rate: rate}}
}

// NewShiftedGammaMean returns a shifted gamma with the given shift and
// shape, with the rate chosen to achieve the given total mean.
func NewShiftedGammaMean(shift, shape, mean float64) ShiftedGamma {
	if mean <= shift {
		panic(fmt.Sprintf("dist: shifted gamma needs mean (%g) > shift (%g)", mean, shift))
	}
	return NewShiftedGamma(shift, shape, shape/(mean-shift))
}

func (d ShiftedGamma) PDF(x float64) float64      { return d.G.PDF(x - d.Shift) }
func (d ShiftedGamma) CDF(x float64) float64      { return d.G.CDF(x - d.Shift) }
func (d ShiftedGamma) Survival(x float64) float64 { return d.G.Survival(x - d.Shift) }

func (d ShiftedGamma) Quantile(p float64) float64 {
	q := d.G.Quantile(p)
	if math.IsNaN(q) {
		return q
	}
	return d.Shift + q
}

func (d ShiftedGamma) Mean() float64 { return d.Shift + d.G.Mean() }

func (d ShiftedGamma) Var() float64 { return d.G.Var() }

func (d ShiftedGamma) Sample(r *rand.Rand) float64 { return d.Shift + d.G.Sample(r) }

func (d ShiftedGamma) Support() (lo, hi float64) { return d.Shift, math.Inf(1) }

// Aged consumes the deterministic displacement first, then defers to the
// gamma conditional law.
func (d ShiftedGamma) Aged(a float64) Dist {
	switch {
	case a < 0 || math.IsNaN(a):
		panic(fmt.Sprintf("dist: negative age %g", a))
	case a == 0:
		return d
	case a < d.Shift:
		return ShiftedGamma{Shift: d.Shift - a, G: d.G}
	default:
		return d.G.Aged(a - d.Shift)
	}
}

func (d ShiftedGamma) meanExcess(x float64) float64 {
	if x <= d.Shift {
		return (d.Shift - x) + d.G.Mean()
	}
	return d.G.meanExcess(x - d.Shift)
}

func (d ShiftedGamma) String() string {
	return fmt.Sprintf("ShiftedGamma(shift=%g, k=%g, rate=%g)", d.Shift, d.G.K, d.G.Rate)
}

// Weibull is the Weibull distribution with shape K > 0 and scale
// Lambda > 0: S(x) = exp(−(x/Lambda)^K). It extends the evaluation beyond
// the paper's five models: K < 1 gives a decreasing hazard (heavy-ish
// tails), K > 1 an increasing hazard (aging components), with K = 1 the
// exponential — a one-parameter sweep of "how non-Markovian" the system is.
type Weibull struct {
	K      float64
	Lambda float64
}

// NewWeibull returns a Weibull distribution with the given shape and mean.
func NewWeibull(shape, mean float64) Weibull {
	if shape <= 0 || math.IsNaN(shape) {
		panic(fmt.Sprintf("dist: Weibull shape must be positive, got %g", shape))
	}
	if mean <= 0 || math.IsNaN(mean) {
		panic(fmt.Sprintf("dist: Weibull mean must be positive, got %g", mean))
	}
	return Weibull{K: shape, Lambda: mean / math.Gamma(1+1/shape)}
}

func (d Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case d.K < 1:
			return math.Inf(1)
		case d.K == 1:
			return 1 / d.Lambda
		default:
			return 0
		}
	}
	z := x / d.Lambda
	return d.K / d.Lambda * math.Pow(z, d.K-1) * math.Exp(-math.Pow(z, d.K))
}

func (d Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/d.Lambda, d.K))
}

func (d Weibull) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(x/d.Lambda, d.K))
}

func (d Weibull) Quantile(p float64) float64 {
	if !checkProb(p) {
		return math.NaN()
	}
	if p == 1 {
		return math.Inf(1)
	}
	return d.Lambda * quantilePow(-math.Log1p(-p), 1/d.K)
}

func (d Weibull) Mean() float64 {
	return d.Lambda * math.Gamma(1+1/d.K)
}

func (d Weibull) Var() float64 {
	g2 := math.Gamma(1 + 2/d.K)
	g1 := math.Gamma(1 + 1/d.K)
	return d.Lambda * d.Lambda * (g2 - g1*g1)
}

func (d Weibull) Sample(r *rand.Rand) float64 { return d.Quantile(r.Float64()) }

func (d Weibull) Support() (lo, hi float64) { return 0, math.Inf(1) }

func (d Weibull) Aged(a float64) Dist {
	if d.K == 1 {
		return Exponential{Rate: 1 / d.Lambda}.Aged(a)
	}
	return newAged(d, a)
}

func (d Weibull) String() string {
	return fmt.Sprintf("Weibull(k=%g, lambda=%g)", d.K, d.Lambda)
}
