package main

import (
	"errors"
	"flag"
	"testing"

	"dtr/internal/obs"
)

// TestExitClassification pins the CLI error taxonomy shared with the
// other commands: -h is ErrHelp (exit 0), flag/config mistakes are
// obs.ErrUsage (exit 2), runtime failures are plain errors (exit 1).
func TestExitClassification(t *testing.T) {
	usage := [][]string{
		{"-no-such-flag"},
		{"extra-arg"},
		{"-window", "0s"},
		{"-window", "-1m"},
		{"-windows", "0"},
		{"-drain-timeout", "0s"},
		{"-log-level", "loud"},
	}
	for _, args := range usage {
		err := run(args)
		if !errors.Is(err, obs.ErrUsage) {
			t.Errorf("run(%v) = %v, want obs.ErrUsage", args, err)
		}
	}
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("run(-h) = %v, want flag.ErrHelp", err)
	}
	// Runtime failure (unbindable address) is a plain error, not usage.
	err := run([]string{"-http", "256.256.256.256:1"})
	if err == nil || errors.Is(err, obs.ErrUsage) {
		t.Errorf("run(bad addr) = %v, want plain error", err)
	}
}
