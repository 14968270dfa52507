package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
)

// The correctness oracles are data: reference optima captured from the
// seed commit. An anchored optimize must return the reference policy
// exactly and the reference value within anchorTolerance, so a kernel
// rewrite that moves values by ulps passes without this file changing.
//
//go:embed testdata/anchors.json
var anchorsJSON []byte

const anchorTolerance = 1e-6 // relative

type anchor struct {
	ID     string  `json:"id"`
	Policy [][]int `json:"policy"`
	Value  float64 `json:"value"`
}

type anchorSet struct{ byID map[string]anchor }

var loadAnchors = sync.OnceValues(func() (*anchorSet, error) {
	var doc struct {
		Anchors []anchor `json:"anchors"`
	}
	if err := json.Unmarshal(anchorsJSON, &doc); err != nil {
		return nil, fmt.Errorf("testdata/anchors.json: %w", err)
	}
	set := &anchorSet{byID: make(map[string]anchor, len(doc.Anchors))}
	for _, a := range doc.Anchors {
		set.byID[a.ID] = a
	}
	return set, nil
})

// check compares one optimum with its anchor. A missing anchor is a
// failure that prints the observed optimum, which is also how a new
// anchor is captured.
func (s *anchorSet) check(id string, policy [][]int, value float64) error {
	a, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("no anchor %q in testdata/anchors.json (observed policy %v value %.10f)", id, policy, value)
	}
	if !reflect.DeepEqual(policy, a.Policy) {
		return fmt.Errorf("anchor %s: policy %v, reference %v", id, policy, a.Policy)
	}
	if d := relDiff(value, a.Value); d > anchorTolerance {
		return fmt.Errorf("anchor %s: value %.10f, reference %.10f (off by %.3g relative)", id, value, a.Value, d)
	}
	return nil
}
