package sim

import (
	"errors"
	"testing"

	"repro/internal/network"
)

// A nil trace must come back as the typed ErrNilTrace, not a panic: the
// experiment engine reports a failing job's error with its index, and
// callers tell this one apart with errors.Is.
func TestRunNilTraceTypedError(t *testing.T) {
	if _, err := Run(network.Testbed(4), nil); !errors.Is(err, ErrNilTrace) {
		t.Fatalf("Run(nil trace) = %v, want ErrNilTrace", err)
	}
}
