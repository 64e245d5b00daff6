package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/network"
)

// TestSummaryMatchesFullUnderFaults: with every soft-fault axis live the
// summary replay keeps the full result's makespan and traffic split at
// every shard count, and on a severed platform both modes stall with the
// same DeadlockError.
func TestSummaryMatchesFullUnderFaults(t *testing.T) {
	prog, err := Compile(allocRing(32, 12))
	if err != nil {
		t.Fatal(err)
	}
	soft := faultedPlatform(32, 4)
	for _, plat := range []network.Platform{soft, soft.WithMapping(network.RoundRobinMapping())} {
		full, err := NewArena().RunProgram(plat, prog)
		if err != nil {
			t.Fatal(err)
		}
		want := summaryOf(full)
		for _, shards := range []int{1, 2, 4} {
			got, err := ReplaySummary(plat, prog, shards)
			if err != nil {
				t.Fatalf("soft faults, map %s, shards %d: %v", plat.Mapping, shards, err)
			}
			if got != want {
				t.Fatalf("soft faults, map %s, shards %d: summary %+v, full result gives %+v", plat.Mapping, shards, got, want)
			}
		}
	}

	severed := pdesPlatform(32, 4).WithDegradations(faults.Spec{DownNodes: []int{1}})
	_, err = NewArena().RunProgram(severed, prog)
	var want *DeadlockError
	if !errors.As(err, &want) || want.Dropped == 0 {
		t.Fatalf("full replay over a downed NIC returned %v, want a fault-induced DeadlockError", err)
	}
	arena := NewArena()
	for _, shards := range []int{1, 2, 4} {
		_, err := arena.replaySummary(severed, prog, shards)
		var got *DeadlockError
		if !errors.As(err, &got) {
			t.Fatalf("shards %d: summary replay returned %v, want DeadlockError", shards, err)
		}
		if got.Dropped != want.Dropped || !reflect.DeepEqual(got.Blocked, want.Blocked) {
			t.Fatalf("shards %d: summary stalled with %d dropped %v, full with %d dropped %v",
				shards, got.Dropped, got.Blocked, want.Dropped, want.Blocked)
		}
	}
}

// TestSummaryModeDoesNotLeak alternates summary and full replays of two
// programs on one arena, then a pooled ReplaySummary and ReplayInto: every
// full replay must equal a fresh arena's bytes and every summary the full
// result's scalars, so neither mode leaks state into the next replay.
func TestSummaryModeDoesNotLeak(t *testing.T) {
	plat := pdesPlatform(32, 4)
	progA, err := Compile(allocRing(32, 12))
	if err != nil {
		t.Fatal(err)
	}
	progB, err := Compile(allocHandleReuse(24, 10))
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[*Program]*Result{}
	for _, prog := range []*Program{progA, progB} {
		res, err := NewArena().RunProgram(plat, prog)
		if err != nil {
			t.Fatal(err)
		}
		fresh[prog] = res
	}
	arena := NewArena()
	steps := []struct {
		prog   *Program
		full   bool
		shards int
	}{
		{progA, false, 1}, {progA, true, 1}, {progA, false, 2},
		{progB, false, 4}, {progB, true, 2}, {progA, false, 1},
		{progA, true, 4}, {progB, true, 1}, {progB, false, 2},
	}
	for i, st := range steps {
		label := "step " + itoa(i) + " " + st.prog.Name() + "/shards=" + itoa(st.shards)
		if st.full {
			got, err := arena.RunProgramShards(plat, st.prog, st.shards)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireIdentical(t, label, fresh[st.prog], got)
			continue
		}
		got, err := arena.replaySummary(plat, st.prog, st.shards)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := summaryOf(fresh[st.prog]); got != want {
			t.Fatalf("%s: summary %+v, want %+v", label, got, want)
		}
	}

	for _, prog := range []*Program{progA, progB} {
		if _, err := ReplaySummary(plat, prog, 2); err != nil {
			t.Fatal(err)
		}
		got, err := ReplayInto(plat, prog, 2, new(Result))
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "pooled "+prog.Name(), fresh[prog], got)
	}
}

// TestSummaryRecordsNoTimeline: a summary replay on a fresh arena grows
// no interval or comm buffer, and dispatches exactly the events of the
// full replay — same event count, windows, serial phases and per-shard
// events — at every shard count.
func TestSummaryRecordsNoTimeline(t *testing.T) {
	plat := pdesPlatform(32, 4)
	prog, err := Compile(allocRing(32, 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		full := NewArena()
		if _, err := full.RunProgramShards(plat, prog, shards); err != nil {
			t.Fatal(err)
		}
		a := NewArena()
		if _, err := a.replaySummary(plat, prog, shards); err != nil {
			t.Fatal(err)
		}
		if cap(a.comms) != 0 || cap(a.rankIvs) != 0 || cap(a.intervals) != 0 || cap(a.rankStats) != 0 {
			t.Fatalf("shards %d: summary replay grew output buffers: comms %d, rank timelines %d, intervals %d, rank stats %d",
				shards, cap(a.comms), cap(a.rankIvs), cap(a.intervals), cap(a.rankStats))
		}
		fs, ss := full.LastStats(), a.LastStats()
		if fs.Shards != ss.Shards || fs.Events != ss.Events || fs.Windows != ss.Windows ||
			fs.ConcurrentWindows != ss.ConcurrentWindows || fs.SerialPhases != ss.SerialPhases ||
			fs.OffloadedEvents != ss.OffloadedEvents || !reflect.DeepEqual(fs.ShardEvents, ss.ShardEvents) {
			t.Fatalf("shards %d: summary stats %+v, full stats %+v", shards, ss, fs)
		}
	}
}

// TestAutoShardsRejectTooManyRanks: a shard request of 0 (the value
// that means "planner's choice" one layer up, and a serial replay here)
// for an 8-rank program on a 4-processor platform with an explicit
// mapping must fail with the rank-count error, not index the 4-entry
// mapping with rank 7.
func TestAutoShardsRejectTooManyRanks(t *testing.T) {
	prog, err := Compile(allocRing(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	plat := pdesPlatform(4, 2).WithMapping(network.ExplicitMapping([]int{0, 0, 1, 1}))
	const want = "sim: trace has 8 ranks but platform has 4 processors"
	if _, err := NewArena().RunProgramShards(plat, prog, 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RunProgramShards: %v, want %q", err, want)
	}
	if _, err := ReplaySummary(plat, prog, 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReplaySummary: %v, want %q", err, want)
	}
}
