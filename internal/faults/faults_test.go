package faults

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestIsZeroAndCanonical(t *testing.T) {
	var z Spec
	if !z.IsZero() {
		t.Fatal("zero Spec not IsZero")
	}
	if !z.Canonical().IsZero() {
		t.Fatal("canonical of zero Spec not zero")
	}

	// Identity values collapse to the zero spec — including a seed that
	// has nothing to perturb.
	inert := []Spec{
		{DerateInter: 1},
		{DerateIntra: 1},
		{DerateInter: 1, DerateIntra: 1, Seed: 42},
		{StragglerFactor: 1, Stragglers: 3},
		{StragglerFactor: 2}, // a factor with no ranks straggles nobody
		{Stragglers: 0, StragglerRanks: nil, StragglerFactor: 0},
		{Seed: 99},
	}
	for _, s := range inert {
		if c := s.Canonical(); !c.IsZero() {
			t.Errorf("Canonical(%+v) = %+v, want zero", s, c)
		}
	}

	// Active specs stay active.
	active := []Spec{
		{DerateInter: 0.5},
		{JitterFrac: 0.2},
		{StragglerFactor: 2, Stragglers: 1},
		{StragglerFactor: 2, StragglerRanks: []int{3}},
		{DownNodes: []int{1}},
		{DownLinks: [][2]int{{0, 1}}},
		{LinkDown: 1},
	}
	for _, s := range active {
		if s.Canonical().IsZero() {
			t.Errorf("Canonical(%+v) collapsed to zero", s)
		}
	}
}

func TestCanonicalNormalizesLists(t *testing.T) {
	s := Spec{
		StragglerFactor: 2,
		StragglerRanks:  []int{5, 1, 5, 3},
		DownNodes:       []int{2, 0, 2},
		DownLinks:       [][2]int{{3, 1}, {1, 3}, {0, 2}},
	}
	c := s.Canonical()
	wantRanks := []int{1, 3, 5}
	if len(c.StragglerRanks) != len(wantRanks) {
		t.Fatalf("StragglerRanks = %v, want %v", c.StragglerRanks, wantRanks)
	}
	for i, r := range wantRanks {
		if c.StragglerRanks[i] != r {
			t.Fatalf("StragglerRanks = %v, want %v", c.StragglerRanks, wantRanks)
		}
	}
	if len(c.DownNodes) != 2 || c.DownNodes[0] != 0 || c.DownNodes[1] != 2 {
		t.Fatalf("DownNodes = %v, want [0 2]", c.DownNodes)
	}
	if len(c.DownLinks) != 2 || c.DownLinks[0] != [2]int{0, 2} || c.DownLinks[1] != [2]int{1, 3} {
		t.Fatalf("DownLinks = %v, want [[0 2] [1 3]]", c.DownLinks)
	}
	// The original spec is untouched: Canonical copies.
	if s.StragglerRanks[0] != 5 {
		t.Fatal("Canonical mutated its receiver's lists")
	}
}

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		s    Spec
		want string // in the error; non-finite values must be named
	}{
		{Spec{DerateInter: -0.1}, ""},
		{Spec{DerateInter: 1.5}, ""},
		{Spec{DerateIntra: 2}, ""},
		{Spec{JitterFrac: -1}, ""},
		{Spec{StragglerFactor: 0.5}, ""},
		{Spec{Stragglers: -1}, ""},
		{Spec{StragglerRanks: []int{-1}}, ""},
		{Spec{DownNodes: []int{-2}}, ""},
		{Spec{DownLinks: [][2]int{{1, 1}}}, ""},
		{Spec{DownLinks: [][2]int{{-1, 2}}}, ""},
		{Spec{LinkDown: -3}, ""},
		{Spec{LinkDown: MaxLinkDown + 1}, ""},
		{Spec{DerateInter: nan}, "derate_inter NaN"},
		{Spec{DerateIntra: inf}, "derate_intra +Inf"},
		{Spec{JitterFrac: nan}, "jitter_frac NaN"},
		{Spec{JitterFrac: inf}, "jitter_frac +Inf"},
		{Spec{StragglerFactor: nan, Stragglers: 1}, "straggler_factor NaN"},
		{Spec{StragglerFactor: inf, Stragglers: 1}, "straggler_factor +Inf"},
	}
	for _, tc := range bad {
		if err := tc.s.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", tc.s, err, tc.want)
		}
	}
	for _, good := range []Spec{
		{DerateInter: 0.5, JitterFrac: 0.3, StragglerFactor: 2, Stragglers: 2, LinkDown: 1},
		{LinkDown: MaxLinkDown},
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("Validate(%+v): %v", good, err)
		}
	}
}

func TestValidateFor(t *testing.T) {
	bad := []Spec{
		{StragglerFactor: 2, Stragglers: 9},            // more stragglers than ranks
		{StragglerFactor: 2, StragglerRanks: []int{8}}, // rank off the platform
		{DownNodes: []int{4}},
		{DownLinks: [][2]int{{0, 4}}},
		{LinkDown: 7}, // 4 nodes have only 6 pairs
	}
	for _, s := range bad {
		if err := s.ValidateFor(8, 4); err == nil {
			t.Errorf("ValidateFor(%+v, 8 procs, 4 nodes) accepted", s)
		}
	}
	good := Spec{StragglerFactor: 2, Stragglers: 8, DownNodes: []int{3}, LinkDown: 6}
	if err := good.ValidateFor(8, 4); err != nil {
		t.Fatalf("ValidateFor(%+v): %v", good, err)
	}
}

func TestEffectiveSeedStability(t *testing.T) {
	a := Spec{DerateInter: 0.5, Stragglers: 2, StragglerFactor: 2, Seed: 7}
	b := Spec{DerateInter: 0.5, Stragglers: 2, StragglerFactor: 2, Seed: 7}
	if a.EffectiveSeed() != b.EffectiveSeed() {
		t.Fatal("identical specs draw different seeds")
	}
	// Canonically equal spellings seed identically.
	c := Spec{DerateInter: 0.5, DerateIntra: 1, Stragglers: 2, StragglerFactor: 2, Seed: 7}
	if a.EffectiveSeed() != c.EffectiveSeed() {
		t.Fatal("canonically equal specs draw different seeds")
	}
	// Any field change reseeds.
	for _, d := range []Spec{
		{DerateInter: 0.6, Stragglers: 2, StragglerFactor: 2, Seed: 7},
		{DerateInter: 0.5, Stragglers: 3, StragglerFactor: 2, Seed: 7},
		{DerateInter: 0.5, Stragglers: 2, StragglerFactor: 3, Seed: 7},
		{DerateInter: 0.5, Stragglers: 2, StragglerFactor: 2, Seed: 8},
	} {
		if a.EffectiveSeed() == d.EffectiveSeed() {
			t.Errorf("spec %+v seeds identically to %+v", d, a)
		}
	}
}

func TestUnitDeterministicAndBounded(t *testing.T) {
	seen := map[float64]int{}
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 50; b++ {
			u := Unit(12345, a, b)
			if u < 0 || u >= 1 {
				t.Fatalf("Unit(12345, %d, %d) = %g outside [0, 1)", a, b, u)
			}
			if u != Unit(12345, a, b) {
				t.Fatal("Unit not deterministic")
			}
			seen[u]++
		}
	}
	if len(seen) < 2400 { // 2500 draws; heavy collisions would mean a broken mix
		t.Fatalf("only %d distinct values in 2500 draws", len(seen))
	}
}

func TestPickRanks(t *testing.T) {
	var d Draws
	got := d.PickRanks(42, 5, 16, nil)
	if len(got) != 5 {
		t.Fatalf("picked %d ranks, want 5", len(got))
	}
	seen := map[int32]bool{}
	for _, r := range got {
		if r < 0 || r >= 16 {
			t.Fatalf("rank %d outside [0, 16)", r)
		}
		if seen[r] {
			t.Fatalf("rank %d picked twice", r)
		}
		seen[r] = true
	}
	again := d.PickRanks(42, 5, 16, nil)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("PickRanks not deterministic")
		}
	}
	if diff := d.PickRanks(43, 5, 16, nil); len(diff) == len(got) {
		same := true
		for i := range got {
			if got[i] != diff[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds picked identical rank sets (possible but vanishingly unlikely)")
		}
	}
	// k > n clips.
	if all := d.PickRanks(1, 99, 4, nil); len(all) != 4 {
		t.Fatalf("overdraw picked %d of 4", len(all))
	}
}

func TestPickPairs(t *testing.T) {
	var d Draws
	got := d.PickPairs(42, 3, 6, nil)
	if len(got) != 3 {
		t.Fatalf("picked %d pairs, want 3", len(got))
	}
	for _, p := range got {
		i, j := int(p>>32), int(p&0xffffffff)
		if !(0 <= i && i < j && j < 6) {
			t.Fatalf("pair (%d, %d) malformed", i, j)
		}
	}
	// Pairs pre-seeded into out (explicit DownLinks) are never re-drawn.
	pre := []uint64{got[0]}
	more := d.PickPairs(42, 2, 6, pre)
	for _, p := range more[1:] {
		if p == got[0] {
			t.Fatal("seeded draw repeated an explicit pair")
		}
	}
	// Overdraw clips to the available pairs: 6 nodes → 15 pairs.
	if all := d.PickPairs(7, 99, 6, nil); len(all) != 15 {
		t.Fatalf("overdraw picked %d of 15 pairs", len(all))
	}
}

// pickRanksQuadratic and pickPairsQuadratic are the draws as first
// written: each candidate is compared with every value drawn before it.
// They define which ranks and pairs a seed selects, and so every
// fault-injected replay's bytes.
func pickRanksQuadratic(seed uint64, k, n int, out []int32) []int32 {
	if k > n {
		k = n
	}
	for ctr := uint64(0); len(out) < k; ctr++ {
		c := int32(mix(seed, tagStraggler, ctr) % uint64(n))
		dup := false
		for _, v := range out {
			if v == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

func pickPairsQuadratic(seed uint64, k, n int, out []uint64) []uint64 {
	total := n * (n - 1) / 2
	if avail := total - len(out); k > avail {
		k = avail
	}
	want := len(out) + k
	for ctr := uint64(0); len(out) < want; ctr++ {
		c := mix(seed, tagLink, ctr) % uint64(n*n)
		i, j := int(c)/n, int(c)%n
		if i >= j {
			continue
		}
		key := uint64(i)<<32 | uint64(j)
		dup := false
		for _, v := range out {
			if v == key {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, key)
		}
	}
	return out
}

// TestDrawsMatchQuadraticOracles: over seeded (seed, k, n) triples, one
// reused Draws selects exactly the oracles' ranks and pairs, in the same
// order, explicit pairs included, from overdraws down to single draws.
func TestDrawsMatchQuadraticOracles(t *testing.T) {
	var d Draws
	for i := uint64(0); i < 300; i++ {
		seed := mix(99, i, 0)
		n := 1 + int(mix(99, i, 1)%200)
		k := int(mix(99, i, 2) % uint64(n+8)) // sometimes above n
		got := d.PickRanks(seed, k, n, nil)
		want := pickRanksQuadratic(seed, k, n, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("PickRanks(%d, %d, %d) = %v, oracle %v", seed, k, n, got, want)
		}

		nodes := 2 + int(mix(99, i, 3)%60)
		total := nodes * (nodes - 1) / 2
		var pre []uint64
		if i%3 == 0 { // explicit pairs first, as DownLinks arrive
			pre = append(pre, uint64(0)<<32|1, uint64(nodes-2)<<32|uint64(nodes-1))
			if nodes == 2 {
				pre = pre[:1]
			}
		}
		kp := int(mix(99, i, 4) % uint64(total+4))
		gotPairs := d.PickPairs(seed, kp, nodes, slices.Clone(pre))
		wantPairs := pickPairsQuadratic(seed, kp, nodes, slices.Clone(pre))
		if !slices.Equal(gotPairs, wantPairs) {
			t.Fatalf("PickPairs(%d, %d, %d, %v) = %v, oracle %v", seed, kp, nodes, pre, gotPairs, wantPairs)
		}
	}
	// Large draws on a 65,536-processor platform, where the oracles
	// still finish quickly.
	if got, want := d.PickRanks(5, 3000, 65536, nil), pickRanksQuadratic(5, 3000, 65536, nil); !slices.Equal(got, want) {
		t.Fatal("PickRanks differs from the oracle at k=3000, n=65536")
	}
	if got, want := d.PickPairs(5, 3000, 65536, nil), pickPairsQuadratic(5, 3000, 65536, nil); !slices.Equal(got, want) {
		t.Fatal("PickPairs differs from the oracle at k=3000, n=65536")
	}
}

// TestDrawsWarmAllocations: a warm Draws selects without allocating.
func TestDrawsWarmAllocations(t *testing.T) {
	var d Draws
	ranks := make([]int32, 0, 64)
	pairs := make([]uint64, 0, 64)
	draw := func() {
		ranks = d.PickRanks(3, 64, 1024, ranks[:0])
		pairs = d.PickPairs(3, 64, 128, pairs[:0])
	}
	draw()
	if allocs := testing.AllocsPerRun(20, draw); allocs != 0 {
		t.Fatalf("warm draws allocate %.1f times, want 0", allocs)
	}
}

func TestDescribe(t *testing.T) {
	if d := (Spec{}).Describe(); d != "" {
		t.Fatalf("zero spec describes as %q", d)
	}
	// Identity values canonicalize away before rendering.
	if d := (Spec{DerateInter: 1, StragglerFactor: 1, Seed: 9}).Describe(); d != "" {
		t.Fatalf("inert spec describes as %q", d)
	}
	s := Spec{
		DerateInter: 0.5, JitterFrac: 0.2,
		Stragglers: 2, StragglerRanks: []int{5}, StragglerFactor: 3,
		DownNodes: []int{0}, DownLinks: [][2]int{{0, 1}}, LinkDown: 2,
	}
	got := s.Describe()
	for _, want := range []string{"inter bw ×0.5", "jitter ≤+20%", "3 straggler(s) ×3", "1 NIC(s) down", "3 link(s) down"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Describe() = %q, missing %q", got, want)
		}
	}
}
