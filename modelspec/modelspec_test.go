package modelspec

import (
	"math"
	"strings"
	"testing"

	"dtr/dist"
)

const testbedJSON = `{
  "servers": [
    {"queue": 50, "service": {"type": "pareto", "mean": 4.858, "alpha": 2.614},
     "failure": {"type": "exponential", "mean": 300}},
    {"queue": 25, "service": {"type": "pareto", "mean": 2.357, "alpha": 2.614},
     "failure": {"type": "exponential", "mean": 150}}
  ],
  "transfer": {"type": "shifted-gamma", "perTaskMean": 1.207, "shape": 2, "shiftFrac": 0.55},
  "fn": {"type": "shifted-gamma", "perTaskMean": 0.313, "shape": 2, "shiftFrac": 0.55}
}`

func TestParseTestbedSpec(t *testing.T) {
	m, initial, err := Parse(strings.NewReader(testbedJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 2 || initial[0] != 50 || initial[1] != 25 {
		t.Fatalf("initial: %v", initial)
	}
	if math.Abs(m.Service[0].Mean()-4.858) > 1e-9 {
		t.Fatalf("service mean: %g", m.Service[0].Mean())
	}
	p, ok := m.Service[0].(dist.Pareto)
	if !ok || math.Abs(p.Alpha-2.614) > 1e-12 {
		t.Fatalf("service family: %v", m.Service[0])
	}
	if math.Abs(m.Failure[1].Mean()-150) > 1e-9 {
		t.Fatalf("failure mean: %g", m.Failure[1].Mean())
	}
	// Transfer scales with the group size.
	z1 := m.Transfer(1, 0, 1)
	z26 := m.Transfer(26, 0, 1)
	if math.Abs(z1.Mean()-1.207) > 1e-9 || math.Abs(z26.Mean()-26*1.207) > 1e-6 {
		t.Fatalf("transfer means: %g, %g", z1.Mean(), z26.Mean())
	}
	sg, ok := z1.(dist.ShiftedGamma)
	if !ok || math.Abs(sg.Shift-0.55*1.207) > 1e-9 {
		t.Fatalf("transfer family: %v", z1)
	}
	if m.FN == nil || math.Abs(m.FN(0, 1).Mean()-0.313) > 1e-9 {
		t.Fatal("fn law missing or wrong")
	}
}

func TestAllFamiliesParse(t *testing.T) {
	cases := []struct {
		json string
		mean float64
	}{
		{`{"type":"exponential","mean":2}`, 2},
		{`{"type":"shifted-exponential","mean":2,"shiftFrac":0.25}`, 2},
		{`{"type":"pareto","mean":3}`, 3},
		{`{"type":"uniform","low":1,"high":3}`, 2},
		{`{"type":"uniform","mean":2}`, 2},
		{`{"type":"gamma","mean":2,"shape":3}`, 2},
		{`{"type":"shifted-gamma","mean":2}`, 2},
		{`{"type":"weibull","mean":2}`, 2},
		{`{"type":"lognormal","mean":2,"sigma":0.5}`, 2},
		{`{"type":"hyperexponential","mean":2,"scv":3}`, 2},
		{`{"type":"deterministic","value":2}`, 2},
	}
	for _, c := range cases {
		var spec DistSpec
		if err := jsonUnmarshal(c.json, &spec); err != nil {
			t.Fatalf("%s: %v", c.json, err)
		}
		d, err := spec.Dist()
		if err != nil {
			t.Fatalf("%s: %v", c.json, err)
		}
		if math.Abs(d.Mean()-c.mean) > 1e-9 {
			t.Fatalf("%s: mean %g, want %g", c.json, d.Mean(), c.mean)
		}
	}
	var never DistSpec
	if err := jsonUnmarshal(`{"type":"never"}`, &never); err != nil {
		t.Fatal(err)
	}
	d, err := never.Dist()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d.Mean(), 1) {
		t.Fatal("never should have infinite mean")
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		`{}`, // no servers
		`{"servers":[{"queue":1,"service":{"type":"exponential","mean":1}}]}`,                                                    // no transfer mean
		`{"servers":[{"queue":-1,"service":{"type":"exponential","mean":1}}],"transfer":{"type":"exponential","perTaskMean":1}}`, // negative queue
		`{"servers":[{"queue":1,"service":{"type":"nope","mean":1}}],"transfer":{"type":"exponential","perTaskMean":1}}`,         // unknown family
		`{"servers":[{"queue":1,"service":{"type":"pareto","mean":1,"alpha":0.5}}],"transfer":{"type":"exponential","perTaskMean":1}}`,
		`{"servers":[{"queue":1,"service":{"type":"exponential"}}],"transfer":{"type":"exponential","perTaskMean":1}}`,                         // missing mean
		`{"servers":[{"queue":1,"service":{"type":"hyperexponential","mean":1,"scv":0.5}}],"transfer":{"type":"exponential","perTaskMean":1}}`, // scv <= 1
		`{"unknownField": 3}`,
		`not json at all`,
	}
	for _, j := range bad {
		if _, _, err := Parse(strings.NewReader(j)); err == nil {
			t.Fatalf("spec should fail: %s", j)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	path := t.TempDir() + "/system.json"
	if err := writeFile(path, testbedJSON); err != nil {
		t.Fatal(err)
	}
	m, initial, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 || initial[0] != 50 {
		t.Fatalf("loaded: n=%d initial=%v", m.N(), initial)
	}
	if _, _, err := Load(path + ".missing"); err == nil {
		t.Fatal("missing file should fail")
	}
}
