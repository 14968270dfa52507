package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dtr/modelspec"
)

// rederive is the fingerprint of a canonical request, computed the way a
// request's key is.
func rederive(verb string, spec, opts []byte) (string, bool) {
	s, err := modelspec.Decode(spec)
	if err != nil {
		return "", false
	}
	key, err := s.Fingerprint([]byte(verb), opts)
	return key, err == nil
}

// FuzzLoadSnapshot feeds arbitrary bytes, decoded as a dtr.cachesnap.v1
// document the way a disk snapshot and a peer's /v1/cache/warm body are,
// to LoadSnapshot on a fresh service. Nothing may panic; a known schema
// accounts for every entry as loaded or skipped, an unknown one for none;
// exactly the entries whose key re-derives from their canonical request
// load; and the cache then serves, under each key, the body of the last
// such entry, byte for byte. The seed is the snapshot of a service that
// answered an optimize and a metrics request.
func FuzzLoadSnapshot(f *testing.F) {
	svc := New(Config{Workers: 2})
	for _, c := range []struct{ path, body string }{
		{"/v1/optimize", reqBody(specJSON, `"grid": 512`)},
		{"/v1/metrics", reqBody(specJSON, `"grid": 512, "policy": "0>1:3", "deadline": 30`)},
	} {
		rec := httptest.NewRecorder()
		handler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			f.Fatalf("%s: %d %s", c.path, rec.Code, rec.Body)
		}
	}
	snap := svc.SnapshotCache()
	if len(snap.Entries) != 2 {
		f.Fatalf("the seed service cached %d answers, want 2", len(snap.Entries))
	}
	seed, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"dtr.cachesnap.v1","entries":[]}`))
	f.Add([]byte(`{"schema":"dtr.cachesnap.v0","entries":[{"key":"k"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap CacheSnapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		svc := New(Config{Workers: 1, CacheSize: 1 << 20})
		loaded, skipped := svc.LoadSnapshot(&snap)
		if snap.Schema != SnapshotSchema {
			if loaded+skipped != 0 {
				t.Fatalf("schema %q: loaded %d, skipped %d, want none", snap.Schema, loaded, skipped)
			}
			return
		}
		if loaded+skipped != len(snap.Entries) {
			t.Fatalf("loaded %d + skipped %d of %d entries", loaded, skipped, len(snap.Entries))
		}
		want := map[string][]byte{}
		valid := 0
		for _, e := range snap.Entries {
			key, ok := rederive(e.Verb, e.Spec, e.Opts)
			if !ok || key != e.Key || e.Verb == "" || len(e.Body) == 0 {
				continue
			}
			valid++
			want[key] = e.Body
		}
		if loaded != valid {
			t.Fatalf("loaded %d entries, %d re-derive their key", loaded, valid)
		}
		if n := svc.cache.Len(); n != len(want) {
			t.Fatalf("cache holds %d entries, want %d distinct keys", n, len(want))
		}
		for key, body := range want {
			got, ok := svc.cache.Get(key)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("key %s: served %q (hit=%v), loaded %q", key, got, ok, body)
			}
		}
		for _, e := range svc.cache.Entries() {
			if key, ok := rederive(e.verb, e.spec, e.opts); !ok || key != e.key {
				t.Fatalf("cached key %s re-derives as %s (ok=%v)", e.key, key, ok)
			}
		}
	})
}
