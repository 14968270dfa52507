// Package modelspec loads DCS models from declarative JSON
// specifications, so tools (cmd/dtrplan) and configuration-driven
// deployments can describe a system without writing Go:
//
//	{
//	  "servers": [
//	    {"queue": 50, "service": {"type": "pareto", "mean": 4.858, "alpha": 2.614},
//	     "failure": {"type": "exponential", "mean": 300}},
//	    {"queue": 25, "service": {"type": "pareto", "mean": 2.357, "alpha": 2.614},
//	     "failure": {"type": "exponential", "mean": 150}}
//	  ],
//	  "transfer": {"type": "shifted-gamma", "perTaskMean": 1.207,
//	               "shape": 2, "shiftFrac": 0.55}
//	}
//
// The transfer (and optional fn) sections describe the *per-task* group
// transfer law: a group of L tasks gets a single draw from the family
// with mean perTaskMean·L, matching the paper's group-transfer semantics.
package modelspec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"dtr/dist"
	"dtr/internal/core"
)

// DistSpec describes one distribution. Type selects the family; the
// other fields parameterize it (unused fields may be omitted):
//
//	exponential          mean
//	shifted-exponential  mean, shiftFrac (shift = shiftFrac·mean; default 0.5)
//	pareto               mean, alpha (> 1; default 2.5)
//	uniform              low, high  (or mean: [mean/2, 3·mean/2])
//	gamma                mean, shape (default 2)
//	shifted-gamma        mean, shape (default 2), shiftFrac (default 0.5)
//	weibull              mean, shape (default 0.7)
//	lognormal            mean, sigma (default 1)
//	hyperexponential     mean, scv (squared coefficient of variation > 1; default 4)
//	deterministic        value (or mean)
//	never                (no parameters; failure laws only)
type DistSpec struct {
	Type      string  `json:"type"`
	Mean      float64 `json:"mean,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	Shape     float64 `json:"shape,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
	Scv       float64 `json:"scv,omitempty"`
	ShiftFrac float64 `json:"shiftFrac,omitempty"`
	Low       float64 `json:"low,omitempty"`
	High      float64 `json:"high,omitempty"`
	Value     float64 `json:"value,omitempty"`
}

// fieldErr builds a field-qualified error: "modelspec: servers[0].service.mean: ...".
func fieldErr(path, field, format string, args ...any) error {
	at := path
	if at != "" && field != "" {
		at += "." + field
	} else if at == "" {
		at = field
	}
	return fmt.Errorf("modelspec: %s: %s", at, fmt.Sprintf(format, args...))
}

// maxParam bounds every distribution parameter's magnitude so that the
// derived quantities the builders compute (3·mean/2, shiftFrac·mean,
// perTaskMean·L, ...) stay finite.
const maxParam = 1e300

// checkFinite rejects NaN, ±Inf and absurdly-large parameters before
// they can poison the solvers' lattices.
func (s DistSpec) checkFinite(path string) error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"mean", s.Mean}, {"alpha", s.Alpha}, {"shape", s.Shape},
		{"sigma", s.Sigma}, {"scv", s.Scv}, {"shiftFrac", s.ShiftFrac},
		{"low", s.Low}, {"high", s.High}, {"value", s.Value},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || math.Abs(p.v) > maxParam {
			return fieldErr(path, p.name, "must be finite with magnitude at most %g, got %g", maxParam, p.v)
		}
	}
	return nil
}

// build materializes the specification. path qualifies error messages
// ("servers[0].service", "transfer", ...); withMean overrides the Mean
// field when positive — used by the per-task transfer scaling.
func (s DistSpec) build(path string, withMean float64) (dist.Dist, error) {
	if err := s.checkFinite(path); err != nil {
		return nil, err
	}
	mean := s.Mean
	if withMean > 0 {
		mean = withMean
	}
	needMean := func() error {
		if mean <= 0 || math.IsInf(mean, 0) {
			return fieldErr(path, "mean", "%q needs a positive finite mean, got %g", s.Type, mean)
		}
		return nil
	}
	needShape := func(def float64) (float64, error) {
		shape := s.Shape
		if shape == 0 {
			shape = def
		}
		if shape < 0 {
			return 0, fieldErr(path, "shape", "must be positive, got %g", shape)
		}
		return shape, nil
	}
	needShiftFrac := func() (float64, error) {
		frac := s.ShiftFrac
		if frac == 0 {
			frac = 0.5
		}
		if frac < 0 || frac >= 1 {
			return 0, fieldErr(path, "shiftFrac", "must be in [0, 1), got %g", frac)
		}
		return frac, nil
	}
	switch s.Type {
	case "exponential":
		if err := needMean(); err != nil {
			return nil, err
		}
		return dist.NewExponential(mean), nil
	case "shifted-exponential":
		if err := needMean(); err != nil {
			return nil, err
		}
		frac, err := needShiftFrac()
		if err != nil {
			return nil, err
		}
		return dist.NewShiftedExponential(frac*mean, mean), nil
	case "pareto":
		if err := needMean(); err != nil {
			return nil, err
		}
		alpha := s.Alpha
		if alpha == 0 {
			alpha = 2.5
		}
		if alpha <= 1 {
			return nil, fieldErr(path, "alpha", "pareto alpha must exceed 1, got %g", alpha)
		}
		return dist.NewPareto(alpha, mean), nil
	case "uniform":
		if s.Low != 0 || s.High != 0 {
			if !(s.Low < s.High) || s.Low < 0 {
				return nil, fieldErr(path, "", "invalid uniform [%g, %g]", s.Low, s.High)
			}
			return dist.NewUniform(s.Low, s.High), nil
		}
		if err := needMean(); err != nil {
			return nil, err
		}
		return dist.NewUniform(mean/2, 3*mean/2), nil
	case "gamma":
		if err := needMean(); err != nil {
			return nil, err
		}
		shape, err := needShape(2)
		if err != nil {
			return nil, err
		}
		return dist.NewGamma(shape, mean), nil
	case "shifted-gamma":
		if err := needMean(); err != nil {
			return nil, err
		}
		shape, err := needShape(2)
		if err != nil {
			return nil, err
		}
		frac, err := needShiftFrac()
		if err != nil {
			return nil, err
		}
		return dist.NewShiftedGammaMean(frac*mean, shape, mean), nil
	case "weibull":
		if err := needMean(); err != nil {
			return nil, err
		}
		shape, err := needShape(0.7)
		if err != nil {
			return nil, err
		}
		return dist.NewWeibull(shape, mean), nil
	case "lognormal":
		if err := needMean(); err != nil {
			return nil, err
		}
		sigma := s.Sigma
		if sigma == 0 {
			sigma = 1
		}
		if sigma < 0 {
			return nil, fieldErr(path, "sigma", "must be positive, got %g", sigma)
		}
		return dist.NewLogNormal(sigma, mean), nil
	case "hyperexponential":
		if err := needMean(); err != nil {
			return nil, err
		}
		scv := s.Scv
		if scv == 0 {
			scv = 4
		}
		if scv <= 1 {
			return nil, fieldErr(path, "scv", "hyperexponential scv must exceed 1, got %g", scv)
		}
		return dist.NewHyperExponential2(mean, scv), nil
	case "deterministic":
		v := s.Value
		if v == 0 {
			v = mean
		}
		if v < 0 || math.IsInf(v, 0) {
			return nil, fieldErr(path, "value", "deterministic value must be non-negative and finite, got %g", v)
		}
		return dist.NewDeterministic(v), nil
	case "never":
		return dist.Never{}, nil
	case "":
		return nil, fieldErr(path, "type", "distribution type missing")
	default:
		return nil, fieldErr(path, "type", "unknown distribution type %q", s.Type)
	}
}

// Dist materializes a standalone distribution specification.
func (s DistSpec) Dist() (dist.Dist, error) { return s.build("", 0) }

// SlowdownSpec describes a random-slowdown (straggler) modifier on a
// service law: with probability Prob a task's service time is stretched
// by Factor (Wang et al.'s straggler model). Prob 0 or Factor 1 is the
// unmodified law.
type SlowdownSpec struct {
	Prob   float64 `json:"prob"`
	Factor float64 `json:"factor"`
}

// maxReplicate caps the per-server replication factor. Copies of a task
// run on the *same* server (diversity against service-time variance, not
// against server loss), so the cap is a sanity bound on the min-of-k
// order statistic, independent of the server count.
const maxReplicate = 16

// maxSlowdownFactor caps the straggler stretch factor.
const maxSlowdownFactor = 1e6

// ServerSpec describes one server: its queue at t = 0, its service law,
// an optional failure law (absent = reliable), an optional straggler
// slowdown on the service law, and an optional replication factor
// (each task runs as `replicate` copies, first to complete wins and the
// losers are cancelled; absent or 1 = no replication).
type ServerSpec struct {
	Queue     int           `json:"queue"`
	Service   DistSpec      `json:"service"`
	Failure   *DistSpec     `json:"failure,omitempty"`
	Slowdown  *SlowdownSpec `json:"slowdown,omitempty"`
	Replicate *int          `json:"replicate,omitempty"`
}

// TransferSpec describes the group-transfer (or failure-notice) law:
// a group of L tasks draws once from the family with mean PerTaskMean·L.
type TransferSpec struct {
	DistSpec
	PerTaskMean float64 `json:"perTaskMean"`
}

// SystemSpec is the root document.
type SystemSpec struct {
	Servers  []ServerSpec  `json:"servers"`
	Transfer TransferSpec  `json:"transfer"`
	FN       *TransferSpec `json:"fn,omitempty"`
}

// Build materializes the specification into a model and its initial
// allocation. Errors are field-qualified ("modelspec:
// servers[1].service.mean: ...") so API layers can report the offending
// field verbatim.
func (s *SystemSpec) Build() (*core.Model, []int, error) {
	if len(s.Servers) == 0 {
		return nil, nil, fmt.Errorf("modelspec: servers: at least one server required")
	}
	if err := checkPerTaskMean("transfer", s.Transfer.PerTaskMean); err != nil {
		return nil, nil, err
	}
	m := &core.Model{}
	var initial []int
	var repl []int
	for i, srv := range s.Servers {
		if srv.Queue < 0 {
			return nil, nil, fieldErr(fmt.Sprintf("servers[%d]", i), "queue", "must be non-negative, got %d", srv.Queue)
		}
		service, err := srv.Service.build(fmt.Sprintf("servers[%d].service", i), 0)
		if err != nil {
			return nil, nil, err
		}
		if srv.Slowdown != nil {
			sd := *srv.Slowdown
			sdPath := fmt.Sprintf("servers[%d].slowdown", i)
			if math.IsNaN(sd.Prob) || sd.Prob < 0 || sd.Prob > 1 {
				return nil, nil, fieldErr(sdPath, "prob", "must be in [0, 1], got %g", sd.Prob)
			}
			if math.IsNaN(sd.Factor) || sd.Factor < 1 || sd.Factor > maxSlowdownFactor {
				return nil, nil, fieldErr(sdPath, "factor", "must be in [1, %g], got %g", float64(maxSlowdownFactor), sd.Factor)
			}
			service = dist.NewSlowdown(service, sd.Prob, sd.Factor)
		}
		var failure dist.Dist = dist.Never{}
		if srv.Failure != nil {
			failure, err = srv.Failure.build(fmt.Sprintf("servers[%d].failure", i), 0)
			if err != nil {
				return nil, nil, err
			}
		}
		if srv.Replicate != nil {
			k := *srv.Replicate
			if k < 1 || k > maxReplicate {
				return nil, nil, fieldErr(fmt.Sprintf("servers[%d]", i), "replicate", "must be in [1, %d], got %d", maxReplicate, k)
			}
			repl = append(repl, k)
		} else {
			repl = append(repl, 1)
		}
		m.Service = append(m.Service, service)
		m.Failure = append(m.Failure, failure)
		initial = append(initial, srv.Queue)
	}
	for _, k := range repl {
		if k != 1 {
			m.Repl = repl
			break
		}
	}

	// Validate the transfer family once with a reference group size, then
	// capture the spec in the closure.
	tspec := s.Transfer
	if _, err := tspec.build("transfer", tspec.PerTaskMean); err != nil {
		return nil, nil, err
	}
	m.Transfer = func(tasks, src, dst int) dist.Dist {
		if tasks < 1 {
			tasks = 1
		}
		// Clamp the scaled group mean so enormous (but individually
		// valid) perTaskMean × group-size products cannot overflow.
		mean := tspec.PerTaskMean * float64(tasks)
		if mean > maxParam {
			mean = maxParam
		}
		d, err := tspec.build("transfer", mean)
		if err != nil {
			panic(fmt.Sprintf("modelspec: transfer spec became invalid: %v", err))
		}
		return d
	}
	if s.FN != nil {
		fspec := *s.FN
		if err := checkPerTaskMean("fn", fspec.PerTaskMean); err != nil {
			return nil, nil, err
		}
		if _, err := fspec.build("fn", fspec.PerTaskMean); err != nil {
			return nil, nil, err
		}
		m.FN = func(src, dst int) dist.Dist {
			d, err := fspec.build("fn", fspec.PerTaskMean)
			if err != nil {
				panic(fmt.Sprintf("modelspec: fn spec became invalid: %v", err))
			}
			return d
		}
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	return m, initial, nil
}

// checkPerTaskMean validates a transfer-law scale factor.
func checkPerTaskMean(path string, v float64) error {
	if !(v > 0) || v > maxParam { // !(v > 0) also catches NaN
		return fieldErr(path, "perTaskMean", "must be positive and finite (at most %g), got %g", maxParam, v)
	}
	return nil
}

// Validate checks the specification without keeping the built model:
// structural errors, negative queues and NaN/Inf/out-of-range
// distribution parameters are all reported with field-qualified paths.
func (s *SystemSpec) Validate() error {
	_, _, err := s.Build()
	return err
}

// Parse reads a SystemSpec document from r and builds it.
func Parse(r io.Reader) (*core.Model, []int, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec SystemSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, nil, fmt.Errorf("modelspec: %w", err)
	}
	return spec.Build()
}

// Load reads a SystemSpec document from a file and builds it.
func Load(path string) (*core.Model, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("modelspec: %w", err)
	}
	defer f.Close()
	return Parse(f)
}
