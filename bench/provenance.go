package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance says what was measured, on what, from which inputs.
type provenance struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	// Noisy is set when the machine was already busier than its CPU
	// count at the start of the run.
	Noisy   bool   `json:"noisy"`
	Seed    uint64 `json:"seed"`
	Profile string `json:"profile"`
	// Counts and InputSHA256 describe the generated input list.
	Counts      map[string]int `json:"op_counts,omitempty"`
	InputSHA256 string         `json:"input_sha256,omitempty"`
}

func gatherProvenance(seed uint64, p profile) provenance {
	pv := provenance{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Profile:    p.name,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			pv.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // 0 when unreadable
		}
	}
	pv.Noisy = pv.LoadAvg1 > float64(pv.NProc)
	return pv
}

// gitSHA asks git for HEAD of the work tree rooted at the working
// directory; git may not look further up, so outside one (the benchmark
// driver's checkout is not a repository) the revision is unknown.
func gitSHA() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
