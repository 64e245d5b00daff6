package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/trace"
)

// deadlockTrace is a genuinely broken trace: rank 0 receives a message
// rank 2 never sends, on an otherwise healthy platform.
func deadlockTrace() *trace.Trace {
	tr := trace.New("bad", "base", 4)
	tr.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1000})
	tr.Append(0, trace.Record{Kind: trace.KindRecv, Peer: 2, Tag: 7, Bytes: 100})
	tr.Append(2, trace.Record{Kind: trace.KindCompute, Instr: 1000})
	return tr
}

// faultedPlatform is the soft-degradation testbed: every axis active at
// once (derated interconnect, jittered latency, seeded stragglers) on a
// shardable multi-node platform.
func faultedPlatform(ranks, nodes int) network.Platform {
	return pdesPlatform(ranks, nodes).WithDegradations(faults.Spec{
		DerateInter:     0.6,
		JitterFrac:      0.25,
		Stragglers:      2,
		StragglerFactor: 3,
		Seed:            11,
	})
}

// TestDegradationsIdentityByteIdentical is the golden equivalence pin:
// a Degradations spec whose every field is an identity value must digest
// and replay byte-for-byte like a platform with no spec at all — so
// pre-fault-injection results (and their content-addressed cache
// entries) stay valid.
func TestDegradationsIdentityByteIdentical(t *testing.T) {
	tr := allocRing(16, 10)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	healthy := pdesPlatform(16, 4)
	want, err := NewArena().RunProgram(healthy, prog)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, err := healthy.Digest()
	if err != nil {
		t.Fatal(err)
	}
	inert := []faults.Spec{
		{DerateInter: 1},
		{DerateInter: 1, DerateIntra: 1, Seed: 42},
		{StragglerFactor: 2}, // a factor with no ranks straggles nobody
		{Seed: 9},            // a seed with nothing to perturb
	}
	for _, spec := range inert {
		plat := healthy.WithDegradations(spec)
		d, err := plat.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != wantDigest {
			t.Fatalf("identity spec %+v changed the platform digest: %s vs %s", spec, d, wantDigest)
		}
		got, err := NewArena().RunProgram(plat, prog)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "identity-spec", want, got)
	}
}

// TestFaultReplayDeterministic: the same degraded spec replayed cold,
// replayed again, and replayed twice more on a warm recycled arena must
// produce byte-identical results — every fault draw is a pure function
// of the spec, never of allocator or scheduling state.
func TestFaultReplayDeterministic(t *testing.T) {
	tr := allocRing(16, 10)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	plat := faultedPlatform(16, 4)
	first, err := NewArena().RunProgram(plat, prog)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewArena().RunProgram(plat, prog)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "cold-rerun", first, second)
	arena := NewArena()
	// Interleave a healthy replay so the warm runs see dirty fault
	// buffers from a *different* spec before re-resolving their own.
	if _, err := arena.RunProgram(pdesPlatform(16, 4).WithStragglers(3), prog); err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		warm, err := arena.RunProgram(plat, prog)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "warm-rerun", first, warm)
	}
}

// TestFaultShardsByteIdentical: conservative PDES sharding must stay
// byte-identical to the serial replay with every soft-fault axis live.
// Fault draws are keyed on compile-time identities and hard-fault drops
// are coordinator-only, so shard count must never leak into results.
func TestFaultShardsByteIdentical(t *testing.T) {
	tr := allocRing(32, 12)
	plat := faultedPlatform(32, 4)
	checkShardsIdentical(t, "faulted-ring", plat, tr, []int{1, 2, 4, 8})
	// Round-robin mapping: nearly every transfer is inter-node, so the
	// derate and jitter paths run almost entirely on the coordinator.
	checkShardsIdentical(t, "faulted-ring-rr", plat.WithMapping(network.RoundRobinMapping()), tr, []int{2, 4})
}

// TestSoftFaultsSlowReplay: degradations must hurt, and only in their
// own lane — a derated interconnect and a straggling rank each push the
// finish time past healthy, and the straggler's own compute time scales
// by exactly its factor.
func TestSoftFaultsSlowReplay(t *testing.T) {
	tr := allocRing(16, 10)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	healthy := pdesPlatform(16, 4)
	base, err := NewArena().RunProgram(healthy, prog)
	if err != nil {
		t.Fatal(err)
	}

	derated, err := NewArena().RunProgram(healthy.WithDerateInter(0.5), prog)
	if err != nil {
		t.Fatal(err)
	}
	if derated.FinishSec <= base.FinishSec {
		t.Fatalf("derate 0.5 finish %.9f, healthy %.9f — derating did not slow the run", derated.FinishSec, base.FinishSec)
	}

	jittered, err := NewArena().RunProgram(healthy.WithJitter(0.5), prog)
	if err != nil {
		t.Fatal(err)
	}
	if jittered.FinishSec <= base.FinishSec {
		t.Fatalf("jitter 0.5 finish %.9f, healthy %.9f — jitter never drew a delay", jittered.FinishSec, base.FinishSec)
	}

	slow := healthy.WithDegradations(faults.Spec{StragglerFactor: 4, StragglerRanks: []int{3}})
	straggled, err := NewArena().RunProgram(slow, prog)
	if err != nil {
		t.Fatal(err)
	}
	if straggled.FinishSec <= base.FinishSec {
		t.Fatalf("straggler finish %.9f, healthy %.9f — straggler did not slow the run", straggled.FinishSec, base.FinishSec)
	}
	got := straggled.Ranks[3].ComputeSec
	want := base.Ranks[3].ComputeSec * 4
	if !f64bits(got, want) {
		t.Fatalf("straggler rank 3 compute %.9f, want exactly 4x healthy (%.9f)", got, want)
	}
	if !f64bits(straggled.Ranks[5].ComputeSec, base.Ranks[5].ComputeSec) {
		t.Fatal("non-straggler rank 5 compute time changed")
	}
}

// TestHardFaultsDeadlockFaultInduced: severing a required path stalls
// the replay with a DeadlockError that *identifies itself* as
// fault-induced (Dropped > 0), and the sharded replay reports the
// identical stall. A genuine trace deadlock keeps Dropped == 0 so the
// two are never confused.
func TestHardFaultsDeadlockFaultInduced(t *testing.T) {
	tr := allocRing(8, 6)
	prog, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, plat network.Platform) *DeadlockError {
		t.Helper()
		_, err := NewArena().RunProgram(plat, prog)
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: replay over a severed platform returned %v, want DeadlockError", label, err)
		}
		if !dl.FaultInduced() || dl.Dropped == 0 {
			t.Fatalf("%s: stall not marked fault-induced: %+v", label, dl)
		}
		if len(dl.Blocked) == 0 {
			t.Fatalf("%s: no blocked ranks reported", label)
		}
		return dl
	}
	// Downed NIC: node 1 (ranks 2-3 under block mapping) unreachable.
	nic := check("nic-down", pdesPlatform(8, 4).WithDegradations(faults.Spec{DownNodes: []int{1}}))
	// Explicit downed link: severs only the node 1 -> node 2 hop.
	check("link-down", pdesPlatform(8, 4).WithDegradations(faults.Spec{DownLinks: [][2]int{{1, 2}}}))
	// Seeded draw: with every inter-node pair down the draw cannot miss.
	check("link-down-drawn", pdesPlatform(8, 4).WithDegradations(faults.Spec{LinkDown: 6, Seed: 5}))

	// The sharded replay must stall identically to serial: same dropped
	// count, same blocked set.
	arena := NewArena()
	for _, shards := range []int{2, 4} {
		_, err := arena.RunProgramShards(pdesPlatform(8, 4).WithDegradations(faults.Spec{DownNodes: []int{1}}), prog, shards)
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("shards=%d: %v, want DeadlockError", shards, err)
		}
		if dl.Dropped != nic.Dropped {
			t.Fatalf("shards=%d dropped %d transfers, serial dropped %d", shards, dl.Dropped, nic.Dropped)
		}
		if len(dl.Blocked) != len(nic.Blocked) {
			t.Fatalf("shards=%d blocked %v, serial blocked %v", shards, dl.Blocked, nic.Blocked)
		}
		for i := range dl.Blocked {
			if dl.Blocked[i] != nic.Blocked[i] {
				t.Fatalf("shards=%d blocked %v, serial blocked %v", shards, dl.Blocked, nic.Blocked)
			}
		}
	}

	// A genuine deadlock — a receive whose send never exists — stays a
	// plain stall: Dropped == 0, FaultInduced false, even with faults on.
	bad := deadlockTrace()
	badProg, err := Compile(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewArena().RunProgram(pdesPlatform(4, 2).WithDerateInter(0.5), badProg)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("genuine deadlock returned %v", err)
	}
	if dl.FaultInduced() || dl.Dropped != 0 {
		t.Fatalf("genuine deadlock misreported as fault-induced: %+v", dl)
	}
}

// TestArenaReusesLinkDownDraw: an arena keeps its last seeded link draw
// and reuses it only for the same effective seed, link count, node
// count and explicit links. Alternating link-down platforms on one
// arena, with a healthy replay between, gives the downed pairs and the
// replay outcome a fresh arena gives, byte for byte, every time.
func TestArenaReusesLinkDownDraw(t *testing.T) {
	prog, err := Compile(allocRing(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	plats := map[string]network.Platform{
		"seed 1":           pdesPlatform(16, 8).WithDegradations(faults.Spec{LinkDown: 3, Seed: 1}),
		"seed 2":           pdesPlatform(16, 8).WithDegradations(faults.Spec{LinkDown: 3, Seed: 2}),
		"seed 1, 16 nodes": pdesPlatform(16, 16).WithDegradations(faults.Spec{LinkDown: 3, Seed: 1}),
		"seed 1, link 0-1": pdesPlatform(16, 8).WithDegradations(faults.Spec{LinkDown: 3, Seed: 1, DownLinks: [][2]int{{0, 1}}}),
		"healthy":          pdesPlatform(16, 8),
	}
	order := []string{"seed 1", "seed 2", "seed 1", "healthy", "seed 1", "seed 1, 16 nodes", "seed 1", "seed 1, link 0-1", "seed 2", "seed 2"}
	drawn := map[string][]uint64{}
	shared := NewArena()
	for i, name := range order {
		label := fmt.Sprintf("replay %d (%s)", i, name)
		fresh := NewArena()
		want, wantErr := fresh.RunProgram(plats[name], prog)
		got, gotErr := shared.RunProgram(plats[name], prog)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("%s: fresh arena %v, reused arena %v", label, wantErr, gotErr)
		case wantErr != nil:
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: fresh arena %v, reused arena %v", label, wantErr, gotErr)
			}
		default:
			requireIdentical(t, label, want, got)
		}
		if name == "healthy" {
			continue
		}
		if !slices.Equal(shared.fxPairs, fresh.fxPairs) {
			t.Fatalf("%s: reused arena downs %v, fresh arena %v", label, shared.fxPairs, fresh.fxPairs)
		}
		drawn[name] = slices.Clone(fresh.fxPairs)
	}
	if slices.Equal(drawn["seed 1"], drawn["seed 2"]) || slices.Equal(drawn["seed 1"], drawn["seed 1, 16 nodes"]) {
		t.Fatalf("the specs draw the same pairs, so alternating them tests nothing: %v", drawn)
	}
}
