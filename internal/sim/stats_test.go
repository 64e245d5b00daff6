package sim

import (
	"testing"

	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestReplayStatsSerial(t *testing.T) {
	tr := allocRing(32, 12)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	plat := pdesPlatform(32, 4)
	a := NewArena()
	before := telemetry.Default().Counter("sim_replays_total", "").Value()
	if _, err := a.RunProgram(plat, prog); err != nil {
		t.Fatal(err)
	}
	st := a.LastStats()
	if st.Shards != 1 {
		t.Fatalf("Shards = %d, want 1", st.Shards)
	}
	if st.Events <= 0 {
		t.Fatalf("Events = %d, want > 0", st.Events)
	}
	if st.ReplayNanos <= 0 {
		t.Fatalf("ReplayNanos = %d, want > 0", st.ReplayNanos)
	}
	if st.ShardEvents != nil {
		t.Fatalf("serial replay has ShardEvents %v", st.ShardEvents)
	}
	if st.Windows != 0 || st.ParallelNanos != 0 {
		t.Fatalf("serial replay has PDES phases: %+v", st)
	}
	if after := telemetry.Default().Counter("sim_replays_total", "").Value(); after != before+1 {
		t.Fatalf("sim_replays_total advanced %d -> %d, want +1", before, after)
	}
	// A second replay resets the record rather than accumulating.
	ev1 := st.Events
	if _, err := a.RunProgram(plat, prog); err != nil {
		t.Fatal(err)
	}
	if st2 := a.LastStats(); st2.Events != ev1 {
		t.Fatalf("repeat replay Events = %d, want %d", st2.Events, ev1)
	}
}

func TestReplayStatsSharded(t *testing.T) {
	tr := allocRing(32, 12)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	plat := pdesPlatform(32, 4)
	serial := NewArena()
	if _, err := serial.RunProgram(plat, prog); err != nil {
		t.Fatal(err)
	}
	sharded := NewArena()
	if _, err := sharded.RunProgramShards(plat, prog, 4); err != nil {
		t.Fatal(err)
	}
	ss, ps := serial.LastStats(), sharded.LastStats()
	if ps.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", ps.Shards)
	}
	// The sharded replay executes the same logical schedule plus the
	// park/resume continuations that hand rank walks across the
	// shard/coordinator boundary — never fewer events than serial.
	if ps.Events < ss.Events {
		t.Fatalf("sharded Events = %d < serial %d", ps.Events, ss.Events)
	}
	if len(ps.ShardEvents) != 4 {
		t.Fatalf("ShardEvents = %v, want 4 shards", ps.ShardEvents)
	}
	var shardSum int64
	for _, n := range ps.ShardEvents {
		shardSum += n
	}
	if shardSum <= 0 || shardSum > ps.Events {
		t.Fatalf("shard event sum %d out of range (total %d)", shardSum, ps.Events)
	}
	if ps.Windows <= 0 {
		t.Fatalf("Windows = %d, want > 0", ps.Windows)
	}
	if ps.SerialPhases <= 0 {
		t.Fatalf("SerialPhases = %d, want > 0", ps.SerialPhases)
	}
	if ps.ParallelNanos <= 0 || ps.SerialNanos <= 0 {
		t.Fatalf("phase nanos = %d/%d, want > 0", ps.ParallelNanos, ps.SerialNanos)
	}
}

func TestReplayStatsTelemetryFamilies(t *testing.T) {
	tr := allocRing(16, 6)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArena().RunProgramShards(pdesPlatform(16, 2), prog, 2); err != nil {
		t.Fatal(err)
	}
	snap := telemetry.Default().Snapshot()
	for _, name := range []string{
		"sim_replays_total", "sim_replay_events_total", "sim_replay_seconds",
		"sim_pdes_replays_total", "sim_pdes_windows_total", "sim_pdes_concurrent_windows_total",
		"sim_pdes_offloaded_events_total",
		"sim_pdes_parallel_seconds_total", "sim_pdes_serial_seconds_total",
		"sim_pdes_shard_events_total",
	} {
		m := snap.Find(name)
		if m == nil || len(m.Samples) == 0 {
			t.Fatalf("metric %s missing from snapshot", name)
		}
	}
}

// TestReplayStatsConcurrentWindows pins the count of windows that can use
// a second core, and its harvest into telemetry. Rings confined to each
// of 4 nodes never wait on the coordinator, so their one window has all
// 4 shards busy; a ring over the same 4 nodes mixes windows with one busy
// shard and windows with several; the two ranks of a ping-pong across 2
// nodes take turns, so none of its windows is concurrent.
func TestReplayStatsConcurrentWindows(t *testing.T) {
	const (
		none = iota
		some
		all
	)
	cases := []struct {
		name   string
		tr     *trace.Trace
		plat   network.Platform
		shards int
		want   int
	}{
		{"node-rings", nodeRings(4, 8, 12), pdesPlatform(32, 4), 4, all},
		{"ring", allocRing(32, 12), pdesPlatform(32, 4), 4, some},
		{"pingpong", pingPong(20), pdesPlatform(2, 2), 2, none},
	}
	counter := telemetry.Default().Counter("sim_pdes_concurrent_windows_total", "")
	for _, tc := range cases {
		prog, err := Compile(tc.tr)
		if err != nil {
			t.Fatal(err)
		}
		a := NewArena()
		before := counter.Value()
		if _, err := a.RunProgramShards(tc.plat, prog, tc.shards); err != nil {
			t.Fatal(err)
		}
		st := a.LastStats()
		cw, w := st.ConcurrentWindows, st.Windows
		if ok := w > 0 && (tc.want == none && cw == 0 || tc.want == some && cw > 0 && cw < w || tc.want == all && cw == w); !ok {
			t.Fatalf("%s: %d of %d windows concurrent", tc.name, cw, w)
		}
		if got := counter.Value() - before; got != uint64(cw) {
			t.Fatalf("%s: sim_pdes_concurrent_windows_total advanced %d, want %d", tc.name, got, cw)
		}
	}
}

// TestReplayStatsOffloadedEvents pins the count of events drained off the
// coordinator and its harvest into telemetry. A ping-pong's windows each
// have one busy shard, which the coordinator drains itself, so nothing is
// offloaded; a ring over 4 block-mapped nodes offloads part of its events
// but never all of them. The count is a function of (program, platform,
// shards): three replays of each give the same value.
func TestReplayStatsOffloadedEvents(t *testing.T) {
	cases := []struct {
		name   string
		tr     *trace.Trace
		plat   network.Platform
		shards int
		none   bool
	}{
		{"pingpong", pingPong(20), pdesPlatform(2, 2), 2, true},
		{"ring", allocRing(32, 12), pdesPlatform(32, 4), 4, false},
	}
	counter := telemetry.Default().Counter("sim_pdes_offloaded_events_total", "")
	for _, tc := range cases {
		prog, err := Compile(tc.tr)
		if err != nil {
			t.Fatal(err)
		}
		var first int64
		for rep := 0; rep < 3; rep++ {
			a := NewArena()
			before := counter.Value()
			if _, err := a.RunProgramShards(tc.plat, prog, tc.shards); err != nil {
				t.Fatal(err)
			}
			st := a.LastStats()
			off := st.OffloadedEvents
			switch {
			case tc.none && off != 0:
				t.Fatalf("%s: %d of %d events offloaded, want 0", tc.name, off, st.Events)
			case !tc.none && (off <= 0 || off >= st.Events):
				t.Fatalf("%s: %d of %d events offloaded, want strictly between", tc.name, off, st.Events)
			case rep > 0 && off != first:
				t.Fatalf("%s: replay %d offloaded %d events, replay 0 offloaded %d", tc.name, rep, off, first)
			}
			first = off
			if got := counter.Value() - before; got != uint64(off) {
				t.Fatalf("%s: sim_pdes_offloaded_events_total advanced %d, want %d", tc.name, got, off)
			}
		}
	}
}
