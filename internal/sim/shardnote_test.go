package sim

import (
	"sync"
	"testing"

	"repro/internal/network"
)

// noteOf is the note a replay's stats would leave.
func noteOf(st ReplayStats) ShardNote {
	return ShardNote{OffloadedEvents: st.OffloadedEvents, ConcurrentWindows: st.ConcurrentWindows}
}

// TestAutoShardNoteMatchesStats: a program's first sharded replay on a
// partition records exactly its LastStats counts, a serial replay
// records nothing, a later replay of the partition at another bandwidth
// leaves the note as it was, and shard counts and mappings key notes of
// their own.
func TestAutoShardNoteMatchesStats(t *testing.T) {
	prog, err := Compile(ringTrace(16, 6, 1000, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	block := pdesPlatform(16, 4)
	plats := []network.Platform{
		block,
		block.WithMapping(network.RoundRobinMapping()),
		block.WithMapping(network.ExplicitMapping([]int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})),
		block.WithMapping(network.ExplicitMapping([]int{3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0})),
	}
	a := NewArena()
	for _, plat := range plats {
		for _, shards := range []int{2, 4} {
			if _, err := a.RunProgram(plat, prog); err != nil {
				t.Fatal(err)
			}
			if note, ok := prog.ShardNote(plat, shards); ok {
				t.Fatalf("%s shards=%d: note %+v before any sharded replay", plat.Mapping, shards, note)
			}
			if _, err := a.RunProgramShards(plat, prog, shards); err != nil {
				t.Fatal(err)
			}
			want := noteOf(a.LastStats())
			if a.LastStats().Shards != shards {
				t.Fatalf("%s: replay ran on %d shards, want %d", plat.Mapping, a.LastStats().Shards, shards)
			}
			note, ok := prog.ShardNote(plat, shards)
			if !ok || note != want {
				t.Fatalf("%s shards=%d: note %+v (%v), want %+v", plat.Mapping, shards, note, ok, want)
			}
			for _, bw := range []float64{31, 4000} {
				if _, err := ReplaySummary(plat.WithInterBandwidth(bw), prog, shards); err != nil {
					t.Fatal(err)
				}
				if note, _ := prog.ShardNote(plat.WithInterBandwidth(bw), shards); note != want {
					t.Fatalf("%s shards=%d bw=%g: note %+v, want the first replay's %+v", plat.Mapping, shards, bw, note, want)
				}
			}
		}
	}
	if n := len(prog.notes); n != len(plats)*2 {
		t.Fatalf("%d notes, want one per (mapping, shards): %d", n, len(plats)*2)
	}
	if _, ok := prog.ShardNote(block, 1); ok {
		t.Fatal("a serial replay left a note")
	}
}

// TestAutoShardNoteConcurrent: concurrent first sharded replays of one
// program leave one note, equal to a sharded replay's counts.
func TestAutoShardNoteConcurrent(t *testing.T) {
	prog, err := Compile(ringTrace(16, 6, 1000, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	plat := pdesPlatform(16, 4)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = ReplaySummary(plat, prog, 2)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(prog.notes); n != 1 {
		t.Fatalf("%d notes after 8 replays of one partition, want 1", n)
	}
	a := NewArena()
	if _, err := a.RunProgramShards(plat, prog, 2); err != nil {
		t.Fatal(err)
	}
	if note, _ := prog.ShardNote(plat, 2); note != noteOf(a.LastStats()) {
		t.Fatalf("note %+v, want %+v", note, noteOf(a.LastStats()))
	}
}
