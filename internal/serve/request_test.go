package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzParseRequest feeds arbitrary request bodies, decoded as the
// endpoints decode them, to parseRequest under every verb of the table
// and under the fuzzed name. Nothing may panic, every rejection is a
// badRequest (an HTTP 400), and an accepted request whose spec is
// replaced by its own canonical document parses again to the same
// fingerprint. The seeds are the golden requests, one per verb branch.
func FuzzParseRequest(f *testing.F) {
	for _, c := range goldenCases {
		f.Add(c.verb, []byte(reqBody(c.spec, c.extra)))
	}
	f.Add("plan", []byte(reqBody(specJSON, "")))
	f.Fuzz(func(t *testing.T, name string, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		names := []string{name}
		for _, v := range verbs {
			if v.name != name {
				names = append(names, v.name)
			}
		}
		for _, verb := range names {
			pr, err := parseRequest(verb, &req)
			if err != nil {
				if !errors.As(err, new(badRequest)) {
					t.Fatalf("%s: rejection %v is not a badRequest", verb, err)
				}
				continue
			}
			again := req
			again.Spec = pr.specJSON
			pr2, err := parseRequest(verb, &again)
			if err != nil {
				t.Fatalf("%s: canonical spec %s rejected: %v", verb, pr.specJSON, err)
			}
			if pr2.key != pr.key {
				t.Fatalf("%s: canonical spec %s fingerprints %s, the request %s", verb, pr.specJSON, pr2.key, pr.key)
			}
		}
	})
}
