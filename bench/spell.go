package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"sort"
)

// respell renders pr's body as a different document with the same
// meaning: object fields in shuffled order, family and request defaults
// spelled out or left out, identity modifiers added, whitespace varied.
// The service must canonicalize every spelling onto pr's cache key.
func respell(pr planReq, r *rand.Rand) []byte {
	dec := json.NewDecoder(bytes.NewReader(pr.body))
	dec.UseNumber() // keep every digit of the generated numbers
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		panic("bench: generated request does not decode: " + err.Error())
	}
	coin := func() bool { return r.IntN(2) == 0 }
	dropDefault := func(obj map[string]any, field, def string) {
		if n, ok := obj[field].(json.Number); ok && n.String() == def && coin() {
			delete(obj, field)
		}
	}

	spec := doc["spec"].(map[string]any)
	for _, s := range spec["servers"].([]any) {
		srv := s.(map[string]any)
		dropDefault(srv["service"].(map[string]any), "alpha", "2.5")
		if _, ok := srv["failure"]; !ok && coin() {
			srv["failure"] = map[string]any{"type": "never"}
		}
		if coin() {
			srv["replicate"] = json.Number("1")
		}
		if coin() {
			srv["slowdown"] = map[string]any{"prob": json.Number("0"), "factor": json.Number("1")}
		}
	}
	dropDefault(spec["transfer"].(map[string]any), "alpha", "2.5")
	switch pr.verb {
	case "optimize":
		if doc["objective"] == "mean" && coin() {
			delete(doc, "objective")
		}
	case "cdf":
		dropDefault(doc, "points", "20")
	case "simulate":
		dropDefault(doc, "seed", "1")
	}
	if coin() {
		doc["timeoutMs"] = json.Number("60000") // not part of the key
	}

	var b bytes.Buffer
	spell(&b, doc, r)
	return b.Bytes()
}

// spell writes v as JSON with shuffled object fields and random spacing.
func spell(b *bytes.Buffer, v any, r *rand.Rand) {
	gap := func() {
		switch r.IntN(4) {
		case 0:
			b.WriteByte(' ')
		case 1:
			b.WriteString("\n  ")
		}
	}
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys) // map order is random; the shuffle must be seeded
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			gap()
			kb, _ := json.Marshal(k) // a string always marshals
			b.Write(kb)
			b.WriteByte(':')
			gap()
			spell(b, x[k], r)
		}
		gap()
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			gap()
			spell(b, e, r)
		}
		b.WriteByte(']')
	default:
		vb, _ := json.Marshal(x) // json.Number, string, bool or nil
		b.Write(vb)
	}
}
