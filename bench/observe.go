package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dtr/dist"
	"dtr/internal/ingest"
	"dtr/internal/obs"
	"dtr/internal/serve"
	"dtr/modelspec"
)

// tenantWidth is the fixed width of the tenant name that starts every
// generated line, so a dataset can be re-addressed to a fresh tenant by
// overwriting bytes in place.
const tenantWidth = 8

func tenantName(n int) []byte { return []byte(fmt.Sprintf("t%0*d", tenantWidth-1, n)) }

// truth is the law a dataset was drawn from.
type truth struct {
	serviceMean  [2]float64
	serviceAlpha [2]float64
	transferMean float64 // per task; shape 2, shift 0.55·mean
}

// dataset is one tenant's observation stream as line-protocol batches:
// Pareto service draws at two servers and shifted-gamma group transfers,
// each observation racing an independent censoring time (about one in
// seven loses and is reported as a right-censored lower bound).
type dataset struct {
	truth   truth
	batches [][]byte
	lines   int
}

// censorStretch scales the second, independent draw that serves as the
// censoring time: for a Pareto law of shape α the share censored is
// stretch^−α / 2, about 1 in 7 at the shapes used here.
const censorStretch = 1.65

func newDataset(r *rand.Rand, p profile) *dataset {
	// The laws move with the seed, but narrowly: how long the refit takes
	// depends on the shape of the data, and the workload should cost the
	// same for every seed.
	jitter := func(x float64) float64 { return x * (1 + 0.03*(2*r.Float64()-1)) }
	d := &dataset{truth: truth{
		serviceMean:  [2]float64{jitter(4.858), jitter(2.357)},
		serviceAlpha: [2]float64{2.5 + 0.2*r.Float64(), 2.5 + 0.2*r.Float64()},
		transferMean: jitter(1.207),
	}}
	laws := []dist.Dist{
		dist.NewPareto(d.truth.serviceAlpha[0], d.truth.serviceMean[0]),
		dist.NewPareto(d.truth.serviceAlpha[1], d.truth.serviceMean[1]),
		dist.NewShiftedGammaMean(0.55*d.truth.transferMean, 2, d.truth.transferMean),
	}
	tenant := tenantName(0)
	n := 0
	for b := 0; b < p.refitBatches; b++ {
		var buf bytes.Buffer
		for l := 0; l < p.refitLines; l++ {
			ch := n % 3
			x, c := laws[ch].Sample(r), censorStretch*laws[ch].Sample(r)
			scale := 1.0
			buf.Write(tenant)
			switch ch {
			case 0:
				buf.WriteString("/service.0 ")
			case 1:
				buf.WriteString("/service.1 ")
			default:
				tasks := 1 + r.IntN(20)
				scale = float64(tasks) // a group of k tasks takes k× the per-task draw
				buf.WriteString("/transfer.0.1." + strconv.Itoa(tasks) + " ")
			}
			if x > c {
				buf.WriteString(strconv.FormatFloat(c*scale, 'f', 6, 64) + " c\n")
			} else {
				buf.WriteString(strconv.FormatFloat(x*scale, 'f', 6, 64) + "\n")
			}
			n++
		}
		d.batches = append(d.batches, buf.Bytes())
	}
	d.lines = n
	return d
}

// readdress rewrites every line's tenant in place.
func (d *dataset) readdress(tenant []byte) {
	for _, b := range d.batches {
		for at := 0; at < len(b); {
			copy(b[at:], tenant)
			nl := bytes.IndexByte(b[at:], '\n')
			if nl < 0 {
				break
			}
			at += nl + 1
		}
	}
}

// observeStack is dtringest and dtrserved side by side, wired as their
// commands wire them (ingest.New + ingest.NewServer on one listener,
// serve.New on another, one process registry).
type observeStack struct {
	reg    *obs.Registry
	ingest *server
	serve  *server
}

func bootObserve() (*observeStack, error) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	imux := http.NewServeMux()
	ingest.NewServer(ingest.New(ingest.Config{}), nil, 0).Register(imux)
	obs.Register(imux, reg, false)
	ing, err := listen(reg, imux)
	if err != nil {
		return nil, err
	}
	smux := http.NewServeMux()
	serve.New(serve.Config{Registry: reg}).Register(smux)
	srv, err := listen(reg, smux)
	if err != nil {
		ing.close()
		return nil, err
	}
	return &observeStack{reg: reg, ingest: ing, serve: srv}, nil
}

func (st *observeStack) close() {
	st.ingest.close()
	st.serve.close()
}

// refitClients is observe_refit's closed-loop width; set-up generates
// one dataset per client.
const refitClients = 2

func setupObserveRefit(seed uint64, p profile) (*instance, error) {
	r := rand.New(rand.NewPCG(seed, 0x0b5e))
	// The datasets are handed out through a pool: a cycle owns its
	// dataset while it re-addresses and sends it.
	pool := make(chan *dataset, refitClients)
	h := sha256.New()
	lines := 0
	for c := 0; c < refitClients; c++ {
		d := newDataset(r, p)
		for _, b := range d.batches {
			h.Write(b)
		}
		lines = d.lines
		pool <- d
	}
	st, err := bootObserve()
	if err != nil {
		return nil, err
	}
	// Warm-up: one short cycle under a tenant outside the measured range,
	// fitted with the one closed-form family so set-up stays short.
	warm := newDataset(rand.New(rand.NewPCG(seed, 0x77a2)), profile{refitBatches: 4, refitLines: p.refitLines})
	if err := refitCycle(st, warm, 0, nil, nil, []string{"exponential"}, false); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &instance{
		units:    p.refitUnits,
		inputSHA: hex.EncodeToString(h.Sum(nil)),
		counts:   map[string]int{"cycles": p.refitUnits, "batches_per_cycle": p.refitBatches, "lines_per_cycle": lines},
		reg:      st.reg,
		close:    st.close,
		run: func(i int, rec *recorder) {
			d := <-pool
			root := rec.tr.start("op.refit", nil, i)
			t0 := time.Now()
			err := refitCycle(st, d, i+1, rec.tr, root, p.refitFamilies, true)
			dur := time.Since(t0)
			root.end()
			pool <- d
			rec.op(dur, err)
		},
	}, nil
}

// refitCycle is one operation of observe_refit on a fresh tenant: every
// batch to POST /v1/ingest, GET /v1/snapshot, POST /v1/fit {"stats"},
// modelspec.Decode of the fitted document. With check set the cycle must
// see every line accepted and recover the generating laws.
func refitCycle(st *observeStack, d *dataset, tenantN int, tr *tracer, root *spanRef, families []string, check bool) error {
	tenant := tenantName(tenantN)
	d.readdress(tenant)
	accepted := 0
	for _, b := range d.batches {
		sp := tr.start("ingest.http", root, tenantN)
		body, _, err := st.ingest.post("/v1/ingest", b)
		sp.end()
		if err != nil {
			return err
		}
		var ir ingest.IngestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			return fmt.Errorf("ingest reply: %w", err)
		}
		accepted += ir.Accepted
	}
	if check && accepted != d.lines {
		return fmt.Errorf("ingest accepted %d of %d lines", accepted, d.lines)
	}

	sp := tr.start("ingest.snapshot", root, tenantN)
	body, _, err := st.ingest.do(http.MethodGet, "/v1/snapshot?tenant="+string(tenant), nil)
	sp.end()
	if err != nil {
		return err
	}
	var snap struct {
		Events uint64          `json:"events"`
		Stats  json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("snapshot reply: %w", err)
	}
	if check && snap.Events != uint64(d.lines) {
		return fmt.Errorf("snapshot holds %d events, sent %d", snap.Events, d.lines)
	}

	fitReq, err := json.Marshal(struct {
		Stats    json.RawMessage `json:"stats"`
		Queues   []int           `json:"queues"`
		Families []string        `json:"families,omitempty"`
	}{snap.Stats, []int{50, 25}, families})
	if err != nil {
		return err
	}
	sp = tr.start("serve.fit", root, tenantN)
	body, _, err = st.serve.post("/v1/fit", fitReq)
	sp.end()
	if err != nil {
		return err
	}

	sp = tr.start("modelspec.Decode", root, tenantN)
	var fr struct {
		Spec json.RawMessage `json:"spec"`
	}
	err = json.Unmarshal(body, &fr)
	var spec *modelspec.SystemSpec
	if err == nil {
		spec, err = modelspec.Decode(fr.Spec)
	}
	sp.end()
	if err != nil {
		return fmt.Errorf("fit reply: %w", err)
	}
	if !check {
		return nil
	}
	_, err = fitError(spec, d.truth, families)
	return err
}

// fitTolerance bounds the relative error of every recovered parameter.
const fitTolerance = 0.10

// fitError returns the largest relative parameter error of a fitted
// document, and an error when a generating family was not recovered or
// a parameter is outside fitTolerance. families is the candidate list
// the fit was restricted to (nil = all): the small profile leaves the
// slow shifted-gamma fitter out, and then only the transfer mean is held
// to the truth.
func fitError(spec *modelspec.SystemSpec, tr truth, families []string) (float64, error) {
	if len(spec.Servers) != 2 {
		return 0, fmt.Errorf("fitted spec has %d servers, want 2", len(spec.Servers))
	}
	worst := 0.0
	within := func(name string, got, want float64) error {
		d := relDiff(got, want)
		if d > worst {
			worst = d
		}
		if d > fitTolerance {
			return fmt.Errorf("fitted %s %.4g is %.1f%% off the generating %.4g", name, got, 100*d, want)
		}
		return nil
	}
	for i, srv := range spec.Servers {
		if srv.Service.Type != "pareto" {
			return worst, fmt.Errorf("service[%d] fitted as %q, generated as pareto", i, srv.Service.Type)
		}
		if err := within(fmt.Sprintf("service[%d].mean", i), srv.Service.Mean, tr.serviceMean[i]); err != nil {
			return worst, err
		}
		if err := within(fmt.Sprintf("service[%d].alpha", i), srv.Service.Alpha, tr.serviceAlpha[i]); err != nil {
			return worst, err
		}
	}
	if spec.Transfer.Type != "shifted-gamma" && (families == nil || slices.Contains(families, "shifted-gamma")) {
		return worst, fmt.Errorf("transfer fitted as %q, generated as shifted-gamma", spec.Transfer.Type)
	}
	return worst, within("transfer.perTaskMean", spec.Transfer.PerTaskMean, tr.transferMean)
}
