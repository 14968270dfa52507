// Serve example: drive a running dtrserved daemon through every
// planning endpoint using the checked-in example specs, verifying the
// responses and the caching behavior along the way.
//
//	go run ./cmd/dtrserved -addr :8080 &
//	go run ./examples/serve -addr 127.0.0.1:8080
//
// The client exits non-zero on the first non-2xx answer (or transport
// error), so scripts — and the smoke driver's Serve subtest
// (internal/smoke) — can use it as a health gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "dtrserved address (host:port)")
	specs := flag.String("specs", defaultSpecsDir(), "directory holding testbed.json and cluster.json")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("serve-example: ")

	testbed, err := os.ReadFile(filepath.Join(*specs, "testbed.json"))
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := os.ReadFile(filepath.Join(*specs, "cluster.json"))
	if err != nil {
		log.Fatal(err)
	}

	c := client{base: "http://" + *addr, http: &http.Client{Timeout: 2 * time.Minute}}

	// Liveness first: fail fast with a clear message if nothing listens.
	if _, err := c.get("/healthz"); err != nil {
		log.Fatalf("daemon not reachable: %v", err)
	}

	// The testbed system is the paper's two-server measurement setup:
	// exact analytic answers for every verb.
	req := func(spec []byte, extra string) string {
		if extra == "" {
			return fmt.Sprintf(`{"spec": %s}`, spec)
		}
		return fmt.Sprintf(`{"spec": %s, %s}`, spec, extra)
	}
	calls := []struct {
		path, body string
	}{
		{"/v1/optimize", req(testbed, `"objective": "reliability"`)},
		{"/v1/optimize", req(testbed, `"objective": "qos", "deadline": 250`)},
		{"/v1/metrics", req(testbed, `"policy": "0>1:26", "deadline": 250`)},
		{"/v1/cdf", req(testbed, `"policy": "0>1:26", "points": 12`)},
		// The cluster system has five servers: simulation and bounds.
		{"/v1/simulate", req(cluster, `"policy": "0>4:33,1>4:20", "reps": 2000, "seed": 1`)},
		{"/v1/bounds", req(cluster, `"policy": "0>4:20,1>4:10", "deadline": 600`)},
	}
	for _, call := range calls {
		body, err := c.post(call.path, call.body)
		if err != nil {
			log.Fatalf("%s: %v", call.path, err)
		}
		fmt.Printf("%-12s %s", call.path, body)
	}

	// A batch bundling two verbs in one round trip.
	batch := fmt.Sprintf(`{"requests": [
		{"verb": "optimize", "spec": %s, "objective": "reliability"},
		{"verb": "metrics", "spec": %s, "policy": "0>1:26", "deadline": 250}
	]}`, testbed, testbed)
	body, err := c.post("/v1/batch", batch)
	if err != nil {
		log.Fatalf("/v1/batch: %v", err)
	}
	fmt.Printf("%-12s %s", "/v1/batch", body)

	// Re-issue the first optimize: identical canonical request, so the
	// daemon answers from its cache with byte-identical content.
	first, err := c.post(calls[0].path, calls[0].body)
	if err != nil {
		log.Fatalf("repeat %s: %v", calls[0].path, err)
	}
	again, err := c.post(calls[0].path, calls[0].body)
	if err != nil {
		log.Fatalf("repeat %s: %v", calls[0].path, err)
	}
	if !bytes.Equal(first, again) {
		log.Fatalf("cached response differs from fresh response:\n%s\n%s", first, again)
	}

	// Confirm the cache saw us via the daemon's own metrics.
	snap, err := c.get("/metrics.json")
	if err != nil {
		log.Fatalf("/metrics.json: %v", err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(snap, &doc); err != nil {
		log.Fatalf("decode /metrics.json: %v", err)
	}
	hits := doc.Counters["dtr_serve_cache_hits_total"]
	if hits == 0 {
		log.Fatal("expected at least one cache hit after repeating a request")
	}
	fmt.Printf("cache hits: %d (repeat answered without re-solving)\n", hits)
	fmt.Println("ok")
}

// defaultSpecsDir resolves examples/specs relative to the working
// directory so `go run ./examples/serve` works from the repo root.
func defaultSpecsDir() string {
	return filepath.Join("examples", "specs")
}

type client struct {
	base string
	http *http.Client
}

func (c client) post(path, body string) ([]byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	return c.read(resp)
}

func (c client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	return c.read(resp)
}

func (c client) read(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}
