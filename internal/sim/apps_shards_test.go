package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// TestShardedAppsMatchSerial replays every application's base,
// overlap-real and overlap-ideal traces on fatnode-smp (16 ranks per
// node, so 64 ranks span 4 nodes) at 2 and 4 shards, on a fresh and on a
// warm arena, and requires the full Result to equal the serial replay's.
// Most windows of these traces have one busy shard, so this covers the
// coordinator-drained window on the programs users actually replay. A
// window drains every event before its bound, so windows and serial
// phases strictly alternate; a window that left a busy shard undrained
// would still replay the same bytes, but through an extra window.
func TestShardedAppsMatchSerial(t *testing.T) {
	ranks := 64
	if testing.Short() {
		ranks = 32
	}
	plat, err := network.PlatformPreset("fatnode-smp", ranks)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range apps.All(ranks) {
		name := entry.App.Name
		t.Run(name, func(t *testing.T) {
			run, err := tracer.Trace(name, ranks, tracer.DefaultConfig(), entry.App.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			flavors := []struct {
				name string
				tr   *trace.Trace
			}{
				{"base", run.BaseTrace()},
				{"overlap-real", run.OverlapReal()},
				{"overlap-ideal", run.OverlapIdeal()},
			}
			for _, fl := range flavors {
				prog, err := sim.Compile(fl.tr)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := sim.NewArena().RunProgram(plat, prog)
				if err != nil {
					t.Fatal(err)
				}
				arena := sim.NewArena()
				for _, n := range []int{2, 4} {
					want := min(n, plat.Nodes)
					for rep := 0; rep < 2; rep++ { // the second replay runs on a warm arena
						got, err := arena.RunProgramShards(plat, prog, n)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/%s/%d ranks/shards=%d/rep=%d", name, fl.name, ranks, n, rep)
						st := arena.LastStats()
						if st.Shards != want {
							t.Fatalf("%s: replayed on %d shards, want %d", label, st.Shards, want)
						}
						if st.Windows > st.SerialPhases+1 || st.SerialPhases > st.Windows+1 {
							t.Fatalf("%s: %d windows and %d serial phases do not alternate", label, st.Windows, st.SerialPhases)
						}
						sim.RequireIdentical(t, label, serial, got)
					}
				}
			}
		})
	}
}
