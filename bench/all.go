package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// allDoc is the document -all writes: every run of every workload.
type allDoc struct {
	Schema     string     `json:"schema"`
	Provenance provenance `json:"provenance"`
	Runs       []*runDoc  `json:"runs"`
}

// runAll runs every workload `runs` times in the given mode. Each run is
// a fresh process of this same binary, as the benchmark driver runs it,
// so peak RSS and set-up time are per run.
func runAll(seed uint64, seconds float64, runs, trace int, out string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := allDoc{Schema: docSchema, Provenance: gatherProvenance(seed, fullProfile)}
	for _, w := range workloads {
		for k := 0; k < runs; k++ {
			s := seed + uint64(k)
			path := filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", w.name, s, trace))
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", path)
			cmd.Stderr = os.Stderr
			err := cmd.Run() // Run waits for the child to exit
			cancel()
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", w.name, s, trace, err)
			}
			doc, err := readJSON[runDoc](path)
			if err != nil {
				return err
			}
			all.Runs = append(all.Runs, doc)
			printTable(stdout, doc)
		}
	}
	return writeJSON(out, all)
}

func readJSON[T any](path string) (*T, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(b, v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
