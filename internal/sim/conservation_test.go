package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Conservation properties: the replay may schedule work but never create
// or destroy it.

func TestPropertyComputeTimeConserved(t *testing.T) {
	// Each rank's simulated compute time must equal its trace's
	// instruction count divided by the CPU rate, independent of any
	// communication behaviour.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(4), 20+rng.Intn(30))
		cfg := testCfg(8)
		res, err := Run(cfg.Platform(), tr)
		if err != nil {
			return false
		}
		for r := 0; r < tr.NumRanks; r++ {
			want := cfg.ComputeSec(tr.TotalInstructions(r))
			if math.Abs(res.Ranks[r].ComputeSec-want) > 1e-9*math.Max(1, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMessageCountConserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(4), 20+rng.Intn(30))
		res, err := Run(testCfg(8).Platform(), tr)
		if err != nil {
			return false
		}
		st := tr.Stats()
		if len(res.Comms) != st.Messages {
			return false
		}
		var bytes int64
		var msgs int
		for r := range res.Ranks {
			bytes += res.Ranks[r].BytesSent
			msgs += res.Ranks[r].MsgsSent
		}
		return bytes == st.BytesSent && msgs == st.Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFinishBoundsPerRankWork(t *testing.T) {
	// The makespan can never undercut any rank's pure compute time, and
	// with unlimited resources it can never exceed compute + all waits +
	// all sends serialized end to end (a very loose upper bound).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomBalancedTrace(rng, 3+rng.Intn(4), 15+rng.Intn(25))
		cfg := testCfg(8)
		res, err := Run(cfg.Platform(), tr)
		if err != nil {
			return false
		}
		for r := 0; r < tr.NumRanks; r++ {
			if res.FinishSec < cfg.ComputeSec(tr.TotalInstructions(r))-eps {
				return false
			}
		}
		var total float64
		for r := range res.Ranks {
			total += res.Ranks[r].ComputeSec + res.Ranks[r].WaitSec + res.Ranks[r].SendBlockedSec
		}
		return res.FinishSec <= total+cfg.LatencySec*float64(len(res.Comms))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOverlapFlavoursConserveCompute(t *testing.T) {
	// Cross-check against the tracer contract: replaying chunked traces
	// must keep per-rank compute identical to the base trace (sim side
	// of the tracer's instruction-conservation property).
	base := ringTrace(4, 6, 700_000, 30_000)
	cfg := testCfg(4)
	res, err := Run(cfg.Platform(), base)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		want := cfg.ComputeSec(base.TotalInstructions(r))
		if math.Abs(res.Ranks[r].ComputeSec-want) > 1e-12 {
			t.Fatalf("rank %d compute %g, want %g", r, res.Ranks[r].ComputeSec, want)
		}
	}
}
