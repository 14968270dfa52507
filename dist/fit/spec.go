package fit

import (
	"fmt"

	"dtr/internal/trace"
	"dtr/modelspec"
)

// Samples holds the per-channel censored samples extracted from a trace:
// one service and one failure sample per server, plus the pooled
// per-task transfer sample and the failure-notice sample.
type Samples struct {
	Servers  int
	Service  []Sample
	Failure  []Sample
	Transfer Sample
	FN       Sample
}

// Collect groups trace events into per-channel samples; see route for
// the per-task transfer normalization. Events are re-validated, so
// Collect accepts streams assembled programmatically, not only ones
// that passed a Reader.
func Collect(evs []trace.Event) (*Samples, error) {
	sm := &Samples{}
	grow := func(n int) {
		for ; sm.Servers < n; sm.Servers++ {
			sm.Service = append(sm.Service, Sample{})
			sm.Failure = append(sm.Failure, Sample{})
		}
	}
	at := func(kind string, server int) observer {
		switch kind {
		case trace.KindService:
			return &sm.Service[server]
		case trace.KindFailure:
			return &sm.Failure[server]
		case trace.KindTransfer:
			return &sm.Transfer
		}
		return &sm.FN
	}
	for i, ev := range evs {
		if err := route(ev, grow, at); err != nil {
			return nil, fmt.Errorf("fit: event %d: %w", i, err)
		}
	}
	return sm, nil
}

// Observe adds one observation to the sample.
func (s *Sample) Observe(value float64, censored bool) {
	if censored {
		s.Cens = append(s.Cens, value)
	} else {
		s.Obs = append(s.Obs, value)
	}
}

// observer is one delay channel accumulating observations: a *Sample
// keeps them, a *Stats folds them into its sufficient statistics.
type observer interface {
	Observe(value float64, censored bool)
}

// route validates one trace event and delivers it to an observation
// sink — Collect's Samples or a StatsSet. grow is told how many servers
// the event reveals, then at names the channel its value belongs to.
// Transfer values are normalized per task (value / group size): every
// family the spec layer scales by group size is scale-closed, so
// per-task-normalized draws pooled across group sizes are i.i.d. from
// the per-task law. Censored transfers normalize the same way — the
// per-task time exceeded bound/size.
func route(ev trace.Event, grow func(n int), at func(kind string, server int) observer) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	switch ev.Kind {
	case trace.KindMeta:
		grow(ev.Servers)
	case trace.KindService, trace.KindFailure:
		grow(ev.Server + 1)
		at(ev.Kind, ev.Server).Observe(ev.Value, ev.Censored)
	case trace.KindTransfer:
		grow(max(ev.Src, ev.Dst) + 1)
		at(ev.Kind, 0).Observe(ev.Value/float64(ev.Tasks), ev.Censored)
	case trace.KindFN:
		grow(max(ev.Src, ev.Dst) + 1)
		at(ev.Kind, 0).Observe(ev.Value, ev.Censored)
	}
	return nil
}

// Config parameterizes Spec: the initial allocation to record (one
// queue per server, required), the candidate families per channel, and
// the minimum number of exact observations a channel needs before its
// fit is trusted.
type Config struct {
	// Queues is the initial allocation recorded in the spec document;
	// its length must match the number of servers seen in the trace.
	Queues []int
	// Families are the candidate service/transfer/fn families; nil
	// means Families().
	Families []Family
	// MinObs is the minimum number of exact (uncensored) observations a
	// service or transfer channel must have; 0 means DefaultMinObs.
	// Failure channels below the threshold are treated as reliable
	// rather than failing the whole fit.
	MinObs int
}

// DefaultMinObs is the default minimum number of exact observations per
// fitted channel.
const DefaultMinObs = 20

// ChannelFit reports one channel's selected fit, JSON-ready for CLI and
// HTTP responses.
type ChannelFit struct {
	// Channel names the delay channel: "service[i]", "failure[i]",
	// "transfer" or "fn".
	Channel string `json:"channel"`
	// Family is the selected family (a modelspec type string).
	Family Family `json:"family"`
	// Dist is the fitted law, human-readable.
	Dist string `json:"dist"`
	// Mean is the fitted law's mean (for transfer/fn: per task).
	Mean float64 `json:"mean"`
	// N and Censored count the sample: total observations and how many
	// were right-censored.
	N        int `json:"n"`
	Censored int `json:"censored"`
	// LogLik, AIC and KS are the selection scores (KS is computed on
	// the uncensored part of the sample).
	LogLik float64 `json:"logLik"`
	AIC    float64 `json:"aic"`
	KS     float64 `json:"ks"`
}

// Report collects the per-channel fits behind a spec.
type Report struct {
	Servers int          `json:"servers"`
	Fits    []ChannelFit `json:"fits"`
}

// Spec fits every delay channel of a trace and assembles a complete,
// validated modelspec document: per-server service laws, per-server
// failure laws (exponential, the only family whose censored MLE is
// trustworthy in the heavily-censored regime failure channels live in;
// servers with no observed failure are emitted reliable), the per-task
// group-transfer law, and the failure-notice law when the trace carries
// one.
func Spec(evs []trace.Event, cfg Config) (*modelspec.SystemSpec, *Report, error) {
	sm, err := Collect(evs)
	if err != nil {
		return nil, nil, err
	}
	return sm.Spec(cfg)
}

// Spec assembles the fitted modelspec document from already-collected
// samples; see the package-level Spec.
func (sm *Samples) Spec(cfg Config) (*modelspec.SystemSpec, *Report, error) {
	return sm.Channels().Spec(cfg)
}

// Channels returns the per-channel view of the samples.
func (sm *Samples) Channels() Channels {
	ch := Channels{Servers: sm.Servers, Transfer: sm.Transfer, FN: sm.FN}
	for _, s := range sm.Service {
		ch.Service = append(ch.Service, s)
	}
	for _, s := range sm.Failure {
		ch.Failure = append(ch.Failure, s)
	}
	return ch
}

// Channels is the per-channel view of one captured system that both
// observation sources produce (Samples.Channels, StatsSet.Channels):
// one service and one failure channel per server, the pooled per-task
// transfer channel and the failure-notice channel. No entry is nil; a
// channel the source lacks reads as empty.
type Channels struct {
	Servers  int
	Service  []Channel
	Failure  []Channel
	Transfer Channel
	FN       Channel
}

// Spec fits every delay channel and assembles the validated modelspec
// document, with the channel policy the package-level Spec states.
func (ch Channels) Spec(cfg Config) (*modelspec.SystemSpec, *Report, error) {
	if ch.Servers == 0 {
		return nil, nil, fmt.Errorf("fit: observations contain no servers")
	}
	// A decoded StatsSet can claim more servers than it carries channels.
	if len(ch.Service) < ch.Servers || len(ch.Failure) < ch.Servers {
		return nil, nil, fmt.Errorf("fit: %d service and %d failure channels for %d servers",
			len(ch.Service), len(ch.Failure), ch.Servers)
	}
	if len(cfg.Queues) != ch.Servers {
		return nil, nil, fmt.Errorf("fit: %d queues for %d observed servers", len(cfg.Queues), ch.Servers)
	}
	minObs := cfg.MinObs
	if minObs <= 0 {
		minObs = DefaultMinObs
	}
	report := &Report{Servers: ch.Servers}
	// fitChannel selects the channel's law among fams, converts it to
	// its spec form and records the fit.
	fitChannel := func(name string, c Channel, fams []Family) (modelspec.DistSpec, error) {
		r, err := selectBest(c, fams)
		var ds modelspec.DistSpec
		if err == nil {
			ds, err = SpecFor(r.Dist)
		}
		if err != nil {
			return ds, fmt.Errorf("fit: %s: %w", name, err)
		}
		report.Fits = append(report.Fits, ChannelFit{
			Channel: name, Family: r.Family, Dist: r.Dist.String(),
			Mean: r.Dist.Mean(), N: c.Exact() + c.Censored(), Censored: c.Censored(),
			LogLik: r.LogLik, AIC: r.AIC, KS: r.KS,
		})
		return ds, nil
	}
	short := func(name string, c Channel) error {
		return fmt.Errorf("fit: %s has %d exact observations, need >= %d", name, c.Exact(), minObs)
	}

	spec := &modelspec.SystemSpec{}
	for i := 0; i < ch.Servers; i++ {
		name := fmt.Sprintf("service[%d]", i)
		if ch.Service[i].Exact() < minObs {
			return nil, nil, short(name, ch.Service[i])
		}
		ds, err := fitChannel(name, ch.Service[i], cfg.Families)
		if err != nil {
			return nil, nil, err
		}
		srv := modelspec.ServerSpec{Queue: cfg.Queues[i], Service: ds}
		// Failure channel: exponential only. With most realizations
		// ending in a still-alive server the sample is censoring-heavy,
		// where the events-over-exposure MLE remains consistent but
		// multi-parameter likelihoods are not identifiable. No observed
		// failure at all means the channel looks reliable.
		if ch.Failure[i].Exact() > 0 {
			fds, err := fitChannel(fmt.Sprintf("failure[%d]", i), ch.Failure[i], []Family{FamilyExponential})
			if err != nil {
				return nil, nil, err
			}
			srv.Failure = &fds
		}
		spec.Servers = append(spec.Servers, srv)
	}

	if ch.Transfer.Exact() < minObs {
		return nil, nil, short("transfer", ch.Transfer)
	}
	tds, err := fitChannel("transfer", ch.Transfer, cfg.Families)
	if err != nil {
		return nil, nil, err
	}
	spec.Transfer = modelspec.TransferSpec{DistSpec: tds, PerTaskMean: tds.Mean}

	if ch.FN.Exact() >= minObs {
		fds, err := fitChannel("fn", ch.FN, cfg.Families)
		if err != nil {
			return nil, nil, err
		}
		spec.FN = &modelspec.TransferSpec{DistSpec: fds, PerTaskMean: fds.Mean}
	}

	if err := spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("fit: assembled spec does not validate: %w", err)
	}
	return spec, report, nil
}
