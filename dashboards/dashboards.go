// Package dashboards embeds the Grafana dashboard definitions and
// Prometheus alert rules for a dtrserved deployment, so the bundle is
// versioned with the metrics it visualizes and validated by the test
// suite: every query must reference metrics the codebase registers, and
// every registered family needs a reader (a query, benchmark or test).
//
// Import the package (or read the files directly from the repository) to
// provision Grafana and Prometheus:
//
//	dashboards/dtr-serve.json          service traffic, latency, cache, admission
//	dashboards/dtr-solver.json         solver throughput and the adapt loop
//	dashboards/dtr-solver-health.json  numerical error budgets and convergence health
//	dashboards/dtr-ingest.json         streaming ingest intake, rejections, staleness
//	dashboards/dtr-cluster.json        fleet forwarding, ring membership, cache warmth
//	dashboards/alerts.yml              Prometheus alerting rules
package dashboards

import "embed"

// FS holds the dashboard JSON documents and the alert rules.
//
//go:embed dtr-serve.json dtr-solver.json dtr-solver-health.json dtr-ingest.json dtr-cluster.json alerts.yml
var FS embed.FS

// Dashboards lists the embedded Grafana dashboard files.
var Dashboards = []string{"dtr-serve.json", "dtr-solver.json", "dtr-solver-health.json", "dtr-ingest.json", "dtr-cluster.json"}

// AlertRules is the embedded Prometheus rule file.
const AlertRules = "alerts.yml"
