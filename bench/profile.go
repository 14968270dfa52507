package main

// profile sizes every workload. The command line always runs fullProfile
// (scale 1); the package tests run smallProfile so that tier-1 stays
// fast. Sizes are part of the benchmark's definition: they were chosen
// once on the seed commit and are not re-tuned afterwards.
type profile struct {
	name string
	// setups is how many times set-up is performed; setup_s is the median.
	setups int

	grids         [2]int // plan_cold alternates both, plan_fanout uses the first
	simReps       int
	coldUnits     int // length of the plan_cold request list
	fanoutUnits   int // sessions
	warmKeys      int
	warmSpellings int
	warmGrid      int

	labTasks   [2]int
	labGrid    int
	labHorizon float64
	labUnits   int

	refitBatches int // per cycle
	refitLines   int // per batch
	refitUnits   int // cycles (tenants) available
	// refitFamilies restricts the candidate families of /v1/fit (nil =
	// all). Only the small profile sets it, to leave out the shifted-gamma
	// fitter, which alone takes a second per channel.
	refitFamilies []string

	// traceUnits is the fixed prefix the traced run replays, per workload.
	traceUnits map[string]int
	// micro scales the per-layer measurement loops and microGrid sizes
	// the solvers they build (the *_2k metrics use it, *_4k twice it).
	micro     float64
	microGrid int
}

var fullProfile = profile{
	name:          "full",
	setups:        3,
	grids:         [2]int{2048, 4096},
	simReps:       2000,
	coldUnits:     4000, // ~30× what 2 clients finish in a run: never wraps
	fanoutUnits:   400,
	warmKeys:      64,
	warmSpellings: 4096,
	warmGrid:      512,
	labTasks:      [2]int{100, 100},
	labGrid:       2048,
	labHorizon:    2600,
	labUnits:      64,
	refitBatches:  1000,
	refitLines:    500,
	refitUnits:    200, // below the daemon's default tenant cap of 256
	traceUnits: map[string]int{
		"plan_cold": 20, "plan_fanout": 2, "plan_warm": 4096, "lab_sweep": 1, "observe_refit": 1,
	},
	micro:     1,
	microGrid: 2048,
}

var smallProfile = profile{
	name:          "small",
	setups:        1,
	grids:         [2]int{256, 512},
	simReps:       100,
	coldUnits:     40,
	fanoutUnits:   4,
	warmKeys:      8,
	warmSpellings: 64,
	warmGrid:      64,
	labTasks:      [2]int{12, 12},
	labGrid:       256,
	labHorizon:    320,
	labUnits:      4,
	refitBatches:  12,
	refitLines:    500,
	refitUnits:    8,
	refitFamilies: []string{"exponential", "gamma", "pareto"},
	traceUnits: map[string]int{
		"plan_cold": 20, "plan_fanout": 1, "plan_warm": 64, "lab_sweep": 1, "observe_refit": 1,
	},
	micro:     0.02,
	microGrid: 256,
}
