package sim

import (
	"errors"
	"testing"

	"repro/internal/network"
)

// A nil trace must come back as the typed ErrNilTrace, not a panic: the
// experiment engine aggregates per-job errors and a panicking replay
// would take the whole worker pool down with it.
func TestRunNilTraceTypedError(t *testing.T) {
	if _, err := Run(network.Testbed(4).Platform(), nil); !errors.Is(err, ErrNilTrace) {
		t.Fatalf("Run(nil trace) = %v, want ErrNilTrace", err)
	}
}
