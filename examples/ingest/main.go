// Ingest example: emit a synthetic two-server observation stream to a
// running dtringest daemon over both wire formats — the compact line
// protocol in UDP datagrams, then an HTTP batch mixing line protocol
// with trace.v1 JSONL — and verify the tenant's snapshot accounts for
// what was sent.
//
//	go run ./cmd/dtringest -http 127.0.0.1:9120 -udp 127.0.0.1:9125 &
//	go run ./examples/ingest -http 127.0.0.1:9120 -udp 127.0.0.1:9125
//
// The emitter exits non-zero when the daemon is unreachable, a batch is
// rejected, or the snapshot comes back short, so scripts — and the smoke
// driver's Ingest subtest (internal/smoke) — can use it as a health gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"time"

	"dtr/dist"
	"dtr/internal/ingest"
	"dtr/internal/trace"
)

func main() {
	httpAddr := flag.String("http", "127.0.0.1:9120", "dtringest HTTP address (host:port)")
	udpAddr := flag.String("udp", "127.0.0.1:9125", "dtringest UDP address (\"\" skips the UDP leg)")
	tenant := flag.String("tenant", "acme", "tenant to emit under")
	rounds := flag.Int("rounds", 300, "observation rounds per leg")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("ingest-example: ")

	base := "http://" + *httpAddr
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		log.Fatalf("daemon not reachable: %v", err)
	}
	resp.Body.Close()

	// The synthetic truth: exponential services with means 4 and 2, 10%
	// of service observations right-censored, and two-task transfers
	// with per-task mean 1.
	r := rand.New(rand.NewPCG(7, 0))
	line := func(i int) string {
		switch i % 3 {
		case 0:
			v := dist.NewExponential(4).Sample(r)
			if r.Float64() < 0.1 {
				return fmt.Sprintf("%s/service.0 %.6f c", *tenant, 0.8*v)
			}
			return fmt.Sprintf("%s/service.0 %.6f", *tenant, v)
		case 1:
			return fmt.Sprintf("%s/service.1 %.6f", *tenant, dist.NewExponential(2).Sample(r))
		default:
			return fmt.Sprintf("%s/transfer.0.1.2 %.6f", *tenant, dist.NewExponential(2).Sample(r))
		}
	}

	sent := 0

	// Leg 1: line-protocol datagrams over UDP, a few lines per packet
	// like a real emitter batching its observations.
	if *udpAddr != "" {
		conn, err := net.Dial("udp", *udpAddr)
		if err != nil {
			log.Fatalf("udp dial: %v", err)
		}
		var batch []string
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if _, err := conn.Write([]byte(strings.Join(batch, "\n") + "\n")); err != nil {
				log.Fatalf("udp write: %v", err)
			}
			sent += len(batch)
			batch = batch[:0]
		}
		for i := 0; i < *rounds; i++ {
			batch = append(batch, line(i))
			if len(batch) == 8 {
				flush()
			}
		}
		flush()
		conn.Close()
		log.Printf("udp leg: %d observations to %s", sent, *udpAddr)
	}

	// Leg 2: one HTTP batch mixing line protocol with trace.v1 JSONL —
	// the daemon sniffs the format per line.
	var body bytes.Buffer
	httpSent := 0
	for i := 0; i < *rounds; i++ {
		if i%2 == 0 {
			fmt.Fprintln(&body, line(i))
		} else {
			ev := trace.Event{V: trace.Version, Kind: trace.KindService, Server: 1,
				Value: dist.NewExponential(2).Sample(r)}
			b, err := json.Marshal(ev)
			if err != nil {
				log.Fatal(err)
			}
			body.Write(b)
			body.WriteByte('\n')
		}
		httpSent++
	}
	resp, err = client.Post(base+"/v1/ingest?tenant="+*tenant, "text/plain", &body)
	if err != nil {
		log.Fatalf("http ingest: %v", err)
	}
	var ir ingest.IngestResponse
	err = json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if err != nil {
		log.Fatalf("decode ingest response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || ir.Rejected != 0 {
		log.Fatalf("http ingest: HTTP %d, %d rejected (%s)", resp.StatusCode, ir.Rejected, ir.Error)
	}
	sent += ir.Accepted
	log.Printf("http leg: %d observations accepted", ir.Accepted)
	if ir.Accepted != httpSent {
		log.Fatalf("http leg accepted %d of %d", ir.Accepted, httpSent)
	}

	// The snapshot must account for the emissions. The UDP leg lands
	// asynchronously and is best-effort even on loopback, so poll until
	// the floor is met (HTTP leg exact, UDP leg at least 90%) or give
	// up after a couple of seconds.
	floor := uint64(httpSent + (sent-httpSent)*9/10)
	var snap ingest.Snapshot
	for attempt := 0; ; attempt++ {
		resp, err = client.Get(base + "/v1/snapshot?tenant=" + *tenant)
		if err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		snap = ingest.Snapshot{}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Fatalf("snapshot: HTTP %d, %v", resp.StatusCode, err)
		}
		if err := snap.Validate(); err != nil {
			log.Fatalf("snapshot invalid: %v", err)
		}
		if snap.Events >= floor {
			break
		}
		if attempt >= 40 {
			log.Fatalf("snapshot carries %d events, want at least %d of %d sent", snap.Events, floor, sent)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var chans []string
	for _, ci := range snap.Channels {
		chans = append(chans, ci.Channel)
	}
	log.Printf("snapshot: %d/%d events, %d servers, channels %v",
		snap.Events, sent, snap.Stats.Servers, chans)
	if snap.Stats.Servers != 2 {
		log.Fatalf("snapshot fitted %d servers, want 2", snap.Stats.Servers)
	}
	fmt.Printf("ingest example OK: %d events across %d channels\n", snap.Events, len(snap.Channels))
}
