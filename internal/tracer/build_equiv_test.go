package tracer_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// raceEnabled is set under the race detector (race_test.go), which slows
// the single-goroutine oracle sweep tenfold without checking anything the
// plain run does not.
var raceEnabled bool

// assertSameTrace fails unless got and want are deep-equal and share a
// digest (the byte-identity the service caches rely on).
func assertSameTrace(t *testing.T, label string, got, want *trace.Trace) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: builder output differs from the oracle", label)
	}
	dg, err := trace.Digest(got)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := trace.Digest(want)
	if err != nil {
		t.Fatal(err)
	}
	if dg != dw {
		t.Fatalf("%s: digest %s, oracle %s", label, dg, dw)
	}
}

// TestBuildersMatchOracleOnApps checks the one-pass builders against the
// two-pass oracle over every application, world size and chunk count, for
// the base, real, ideal and selective (half the buffers ideal) flavours,
// and the communicated buffer names against an event scan.
func TestBuildersMatchOracleOnApps(t *testing.T) {
	ranks := []int{2, 4, 8, 16}
	maxChunks := 9
	if testing.Short() || raceEnabled {
		ranks, maxChunks = []int{2, 4}, 4
	}
	for _, n := range ranks {
		for _, entry := range apps.All(n) {
			name := entry.App.Name
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				run, err := tracer.Trace(name, n, tracer.DefaultConfig(), entry.App.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTrace(t, "base", run.BaseTrace(), run.RefBaseTrace())
				if got, want := run.BufferNames(), run.RefBufferNames(); !reflect.DeepEqual(got, want) {
					t.Fatalf("BufferNames %q, event scan %q", got, want)
				}
				half := map[string]bool{}
				for i, b := range run.BufferNames() {
					half[b] = i%2 == 0
				}
				for k := 1; k <= maxChunks; k++ {
					v := run.WithChunks(k)
					assertSameTrace(t, fmt.Sprintf("real k=%d", k), v.OverlapReal(),
						v.RefOverlap("overlap-real", func(string) bool { return false }))
					assertSameTrace(t, fmt.Sprintf("ideal k=%d", k), v.OverlapIdeal(),
						v.RefOverlap("overlap-ideal", func(string) bool { return true }))
					assertSameTrace(t, fmt.Sprintf("selective k=%d", k), v.OverlapSelective(half),
						v.RefOverlap("overlap-selective", func(b string) bool { return half[b] }))
				}
			})
		}
	}
}
