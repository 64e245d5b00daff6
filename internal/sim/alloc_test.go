//go:build !race

// The race detector instruments allocations, so the zero-alloc pins only
// run in regular test builds; -race runs still execute the equivalence
// suite in program_test.go.

package sim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/trace"
)

// pinReplayAllocs replays prog on a warm arena and fails if the replay
// allocates more than maxPerReplay — the regression guard for the
// zero-alloc property. The bound is a handful of allocations per *replay*
// (not per record): runtime-internal bookkeeping can show up sporadically,
// but per-record allocation (the old engine's closures and map inserts
// cost ~5 allocs/record) trips it immediately.
func pinReplayAllocs(t *testing.T, plat network.Platform, tr *trace.Trace, maxPerReplay float64) {
	t.Helper()
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	for i := 0; i < 3; i++ { // warm every buffer past its high-water mark
		if _, err := arena.RunProgram(plat, prog); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := arena.RunProgram(plat, prog); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxPerReplay {
		t.Fatalf("warm arena replay allocates %.1f times per replay (%d records), want <= %g",
			allocs, prog.Records(), maxPerReplay)
	}
}

func TestReplayAllocsFlat(t *testing.T) {
	pinReplayAllocs(t, network.Testbed(16), allocRing(16, 25), 2)
}

func TestReplayAllocsHandleReuse(t *testing.T) {
	pinReplayAllocs(t, network.Testbed(16), allocHandleReuse(16, 25), 2)
}

func TestReplayAllocsHierarchical(t *testing.T) {
	plat, err := network.PlatformPreset("fatnode-smp", 16)
	if err != nil {
		t.Fatal(err)
	}
	pinReplayAllocs(t, plat, allocRing(16, 25), 2)
	pinReplayAllocs(t, plat.WithMapping(network.RoundRobinMapping()), allocRing(16, 25), 2)
}

// TestReplayAllocsFaulted pins the degraded path: soft faults (derate,
// jitter, seeded stragglers) must not cost the warm replay its
// zero-allocation property. All seeded draws resolve into arena-owned
// buffers at reset time; the replay itself reads immutable fault state.
func TestReplayAllocsFaulted(t *testing.T) {
	plat := pdesPlatform(16, 4).WithDegradations(faults.Spec{
		DerateInter:     0.6,
		DerateIntra:     0.8,
		JitterFrac:      0.25,
		Stragglers:      2,
		StragglerFactor: 3,
		Seed:            11,
	})
	pinReplayAllocs(t, plat, allocRing(16, 25), 2)
}

// TestReplayAllocsHardFaulted pins the list-valued hard-fault path.
// Canonicalizing explicit DownNodes/DownLinks lists copies them once
// per replay — a small per-replay constant, never per-record. The
// downed link joins two nodes the block-mapped ring never connects, so
// the linkFaulted check runs on every inter-node transfer without
// severing the run.
func TestReplayAllocsHardFaulted(t *testing.T) {
	plat := pdesPlatform(16, 4).WithDegradations(faults.Spec{
		DerateInter: 0.6,
		DownLinks:   [][2]int{{0, 2}},
		Seed:        11,
	})
	pinReplayAllocs(t, plat, allocRing(16, 25), 6)
}

// TestPooledReplayAllocs pins the sweep primitive: after warm-up,
// ReplaySummary on a pooled arena must not allocate per point.
func TestPooledReplayAllocs(t *testing.T) {
	tr := allocRing(8, 20)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	plat := network.Testbed(8)
	for i := 0; i < 3; i++ {
		if _, err := ReplaySummary(plat, prog, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReplaySummary(plat, prog, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("pooled replay allocates %.1f times per point, want <= 2", allocs)
	}
}

// TestReplayIntoAllocs pins the arena-aware copy-out: replaying into a
// reused Result must not allocate once the destination has grown to the
// program's high-water mark.
func TestReplayIntoAllocs(t *testing.T) {
	tr := allocRing(8, 20)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	plat := network.Testbed(8)
	var dst Result
	for i := 0; i < 3; i++ {
		if _, err := ReplayInto(plat, prog, 1, &dst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReplayInto(plat, prog, 1, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("copy-out replay allocates %.1f times per point, want <= 2", allocs)
	}
}

// TestAutoShardNoteAllocs pins the shard note's cost: once a partition
// has its note, reading it and the record call every later sharded
// replay makes allocate nothing.
func TestAutoShardNoteAllocs(t *testing.T) {
	prog, err := Compile(allocRing(16, 5))
	if err != nil {
		t.Fatal(err)
	}
	plat := pdesPlatform(16, 4).WithMapping(network.ExplicitMapping([]int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}))
	if _, err := ReplaySummary(plat, prog, 2); err != nil {
		t.Fatal(err)
	}
	st := ReplayStats{OffloadedEvents: 1, ConcurrentWindows: 1}
	allocs := testing.AllocsPerRun(100, func() {
		prog.recordNote(partitionOf(plat, 2), &st)
		if _, ok := prog.ShardNote(plat, 2); !ok {
			t.Fatal("note missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("a recorded partition's note costs %.1f allocations per replay, want 0", allocs)
	}
}
