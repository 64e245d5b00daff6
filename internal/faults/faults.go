// Package faults defines the degradation model for fault-injection
// studies: a declarative Spec of soft faults (bandwidth derating,
// latency jitter, compute stragglers) and hard faults (downed NICs,
// downed inter-node links) that the replay engine applies while
// replaying a compiled program.
//
// Everything in the package is deterministic by construction. Random
// choices — which ranks straggle, which links go down, how much jitter
// a transfer sees — are pure functions of the spec's effective seed and
// stable identifiers (rank index, stream id, send sequence), never of
// execution order or wall clock. Two replays of the same spec on the
// same platform are byte-identical, serial or PDES-sharded alike, which
// is what lets the content-addressed caches serve fault-injected
// results exactly like healthy ones.
//
// The package has no dependencies so that network, sim, core, and
// service can all import it.
package faults

import (
	"fmt"
	"math"
	"sort"
)

// MaxLinkDown bounds the seeded downed-link count (Spec.LinkDown). Every
// replay draws and looks up its downed pairs, so without a bound a short
// spec could name billions of them on a large platform; 2^20 is the
// platform pool bound (network.MaxPoolUnits) as well.
const MaxLinkDown = 1 << 20

// Spec declares one degradation scenario. The zero value is the healthy
// platform: every field is optional and identity-valued fields (a
// derate of 1, a straggler factor of 1, a count of 0) are canonicalized
// away so that a spec that does nothing digests identically to no spec
// at all.
type Spec struct {
	// DerateInter and DerateIntra multiply the effective bandwidth of
	// the inter-node and intra-node link classes: a factor in (0, 1],
	// where 0.5 halves the bandwidth (doubles serialization time) and 1
	// or 0 leaves the class healthy.
	DerateInter float64 `json:"derate_inter,omitempty"`
	DerateIntra float64 `json:"derate_intra,omitempty"`

	// JitterFrac J >= 0 adds deterministic latency jitter to inter-node
	// transfers: each transfer's link latency is multiplied by 1 + J*u,
	// where u in [0, 1) is drawn by Unit from the effective seed and the
	// transfer's (stream, sequence) identity. 0 disables jitter.
	JitterFrac float64 `json:"jitter_frac,omitempty"`

	// StragglerFactor >= 1 multiplies the compute-burst durations of the
	// straggler ranks. Stragglers picks that many ranks by seeded draw;
	// StragglerRanks pins explicit ranks (both may be used together).
	// A factor of 1 or 0, or an empty straggler set, means no stragglers.
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
	Stragglers      int     `json:"stragglers,omitempty"`
	StragglerRanks  []int   `json:"straggler_ranks,omitempty"`

	// DownNodes lists nodes whose NIC is down: every inter-node transfer
	// into or out of such a node is lost (it never injects and never
	// arrives). DownLinks lists unordered node pairs whose direct
	// inter-node link is down; LinkDown instead picks that many distinct
	// node pairs by seeded draw. Intra-node traffic is never affected.
	DownNodes []int    `json:"down_nodes,omitempty"`
	DownLinks [][2]int `json:"down_links,omitempty"`
	LinkDown  int      `json:"link_down,omitempty"`

	// Seed perturbs every seeded draw (straggler selection, link
	// selection, jitter). Identical specs — including Seed — always make
	// identical draws; varying only Seed resamples the same marginal
	// fault distribution.
	Seed uint64 `json:"seed,omitempty"`
}

// IsZero reports whether the spec, as written, is the zero value.
// Callers deciding whether any degradation is active should test
// Canonical().IsZero() instead, which also treats identity values
// (derate 1, factor 1 with no ranks) as healthy.
func (s Spec) IsZero() bool {
	return s.DerateInter == 0 && s.DerateIntra == 0 && s.JitterFrac == 0 &&
		s.StragglerFactor == 0 && s.Stragglers == 0 && len(s.StragglerRanks) == 0 &&
		len(s.DownNodes) == 0 && len(s.DownLinks) == 0 && s.LinkDown == 0 &&
		s.Seed == 0
}

// Canonical returns the normal form of the spec: identity values
// collapse to zero, rank and node lists are sorted and deduplicated,
// link pairs are ordered low-high, and a spec with no effect collapses
// to the zero Spec (dropping a then-meaningless Seed). Canonicalization
// is what makes "derate 1.0" digest — and therefore cache — identically
// to a healthy platform.
func (s Spec) Canonical() Spec {
	c := s
	if c.DerateInter == 1 {
		c.DerateInter = 0
	}
	if c.DerateIntra == 1 {
		c.DerateIntra = 0
	}
	if c.StragglerFactor == 1 || (c.Stragglers == 0 && len(c.StragglerRanks) == 0) {
		c.StragglerFactor, c.Stragglers, c.StragglerRanks = 0, 0, nil
	}
	if c.StragglerFactor == 0 {
		c.Stragglers, c.StragglerRanks = 0, nil
	}
	c.StragglerRanks = sortedDedup(c.StragglerRanks)
	c.DownNodes = sortedDedup(c.DownNodes)
	c.DownLinks = canonicalPairs(c.DownLinks)
	if c.DerateInter == 0 && c.DerateIntra == 0 && c.JitterFrac == 0 &&
		c.StragglerFactor == 0 && len(c.DownNodes) == 0 &&
		len(c.DownLinks) == 0 && c.LinkDown == 0 {
		return Spec{}
	}
	return c
}

// Describe renders the canonical spec as a compact one-line summary for
// human-facing platform descriptions; empty for the (effectively) zero
// spec.
func (s Spec) Describe() string {
	d := s.Canonical()
	if d.IsZero() {
		return ""
	}
	var parts []string
	if d.DerateInter > 0 {
		parts = append(parts, fmt.Sprintf("inter bw ×%g", d.DerateInter))
	}
	if d.DerateIntra > 0 {
		parts = append(parts, fmt.Sprintf("intra bw ×%g", d.DerateIntra))
	}
	if d.JitterFrac > 0 {
		parts = append(parts, fmt.Sprintf("jitter ≤+%g%%", d.JitterFrac*100))
	}
	if d.StragglerFactor > 0 {
		n := d.Stragglers + len(d.StragglerRanks)
		parts = append(parts, fmt.Sprintf("%d straggler(s) ×%g", n, d.StragglerFactor))
	}
	if len(d.DownNodes) > 0 {
		parts = append(parts, fmt.Sprintf("%d NIC(s) down", len(d.DownNodes)))
	}
	if n := len(d.DownLinks) + d.LinkDown; n > 0 {
		parts = append(parts, fmt.Sprintf("%d link(s) down", n))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += ", " + p
	}
	return out
}

func sortedDedup(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int(nil), xs...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func canonicalPairs(ps [][2]int) [][2]int {
	if len(ps) == 0 {
		return nil
	}
	out := make([][2]int, 0, len(ps))
	for _, p := range ps {
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Validate checks the spec's shape: field ranges and pair structure,
// independent of any platform. ValidateFor adds the platform-dependent
// bounds.
func (s *Spec) Validate() error {
	// Range checks are written so that NaN, which fails every
	// comparison, fails them too.
	if !(s.DerateInter >= 0 && s.DerateInter <= 1) {
		return fmt.Errorf("faults: derate_inter %g must be 0 (healthy) or in (0, 1]", s.DerateInter)
	}
	if !(s.DerateIntra >= 0 && s.DerateIntra <= 1) {
		return fmt.Errorf("faults: derate_intra %g must be 0 (healthy) or in (0, 1]", s.DerateIntra)
	}
	if math.IsNaN(s.JitterFrac) || math.IsInf(s.JitterFrac, 0) {
		return fmt.Errorf("faults: jitter_frac %g must be finite", s.JitterFrac)
	}
	if s.JitterFrac < 0 {
		return fmt.Errorf("faults: jitter_frac %g negative", s.JitterFrac)
	}
	if math.IsNaN(s.StragglerFactor) || math.IsInf(s.StragglerFactor, 0) {
		return fmt.Errorf("faults: straggler_factor %g must be finite", s.StragglerFactor)
	}
	if s.StragglerFactor != 0 && s.StragglerFactor < 1 {
		return fmt.Errorf("faults: straggler_factor %g below 1 (stragglers slow down, they never speed up)", s.StragglerFactor)
	}
	if s.Stragglers < 0 {
		return fmt.Errorf("faults: stragglers %d negative", s.Stragglers)
	}
	for _, r := range s.StragglerRanks {
		if r < 0 {
			return fmt.Errorf("faults: straggler rank %d negative", r)
		}
	}
	for _, n := range s.DownNodes {
		if n < 0 {
			return fmt.Errorf("faults: down node %d negative", n)
		}
	}
	for _, p := range s.DownLinks {
		if p[0] < 0 || p[1] < 0 {
			return fmt.Errorf("faults: down link [%d %d] has a negative node", p[0], p[1])
		}
		if p[0] == p[1] {
			return fmt.Errorf("faults: down link [%d %d] joins a node to itself", p[0], p[1])
		}
	}
	if s.LinkDown < 0 {
		return fmt.Errorf("faults: link_down %d negative", s.LinkDown)
	}
	if s.LinkDown > MaxLinkDown {
		return fmt.Errorf("faults: link_down %d, must be at most %d", s.LinkDown, MaxLinkDown)
	}
	return nil
}

// ValidateFor validates the spec against a platform of the given size:
// straggler ranks must exist, down nodes and link endpoints must exist,
// and the seeded selections must be satisfiable.
func (s *Spec) ValidateFor(processors, nodes int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Stragglers > processors {
		return fmt.Errorf("faults: %d stragglers requested on %d processors", s.Stragglers, processors)
	}
	for _, r := range s.StragglerRanks {
		if r >= processors {
			return fmt.Errorf("faults: straggler rank %d outside platform with %d processors", r, processors)
		}
	}
	for _, n := range s.DownNodes {
		if n >= nodes {
			return fmt.Errorf("faults: down node %d outside platform with %d nodes", n, nodes)
		}
	}
	for _, p := range s.DownLinks {
		if p[0] >= nodes || p[1] >= nodes {
			return fmt.Errorf("faults: down link [%d %d] outside platform with %d nodes", p[0], p[1], nodes)
		}
	}
	if s.LinkDown > 0 {
		pairs := nodes * (nodes - 1) / 2
		if s.LinkDown > pairs {
			return fmt.Errorf("faults: link_down %d exceeds the %d node pairs of a %d-node platform", s.LinkDown, pairs, nodes)
		}
	}
	return nil
}

// EffectiveSeed folds the canonical spec into the 64-bit seed every
// seeded draw uses: FNV-1a over the fields in declaration order. Two
// canonically equal specs always produce the same seed; any field
// change reseeds every draw.
func (s Spec) EffectiveSeed() uint64 {
	c := s.Canonical()
	h := fnvOffset
	h = fnvFloat(h, c.DerateInter)
	h = fnvFloat(h, c.DerateIntra)
	h = fnvFloat(h, c.JitterFrac)
	h = fnvFloat(h, c.StragglerFactor)
	h = fnvUint(h, uint64(c.Stragglers))
	for _, r := range c.StragglerRanks {
		h = fnvUint(h, uint64(r))
	}
	for _, n := range c.DownNodes {
		h = fnvUint(h, uint64(n))
	}
	for _, p := range c.DownLinks {
		h = fnvUint(h, uint64(p[0]))
		h = fnvUint(h, uint64(p[1]))
	}
	h = fnvUint(h, uint64(c.LinkDown))
	h = fnvUint(h, s.Seed)
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvFloat(h uint64, v float64) uint64 {
	// Floats fold through their exact bit patterns; canonicalization has
	// already collapsed the identity values, and the replay engine never
	// produces negative zeros here.
	return fnvUint(h, math.Float64bits(v))
}

// Unit draws the deterministic uniform variate in [0, 1) for the pair
// of stable identifiers (a, b) under seed — a splitmix64-style finalizer
// over the three words. It allocates nothing and depends only on its
// arguments, so replays may draw in any order (serial or sharded) and
// see identical values.
func Unit(seed, a, b uint64) float64 {
	return float64(mix(seed, a, b)>>11) / (1 << 53)
}

func mix(seed, a, b uint64) uint64 {
	x := seed ^ a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Draw streams: the tag keeps each seeded selection independent of the
// others and of the per-transfer jitter draws.
const (
	tagStraggler uint64 = 0x5354524147474c52 // "STRAGGLR"
	tagLink      uint64 = 0x4c494e4b444f574e // "LINKDOWN"
)

// Draws is the reusable dedupe state of the seeded selections: a bitmap
// over ranks and a set of node pairs. With it each draw costs O(1)
// expected time, and a warm Draws selects without allocating. The zero
// value is ready to use; a Draws is not safe for concurrent use.
type Draws struct {
	seen  []uint64            // PickRanks: bit r set once rank r is drawn
	pairs map[uint64]struct{} // PickPairs: every pair in out so far
}

// PickRanks appends k distinct values from [0, n) to out (which may
// carry reused capacity but must be length 0) in selection order, by
// deterministic rejection sampling from seed. k > n is clipped to n.
func (d *Draws) PickRanks(seed uint64, k, n int, out []int32) []int32 {
	if k > n {
		k = n
	}
	words := (n + 63) / 64
	if cap(d.seen) < words {
		d.seen = make([]uint64, words)
	}
	d.seen = d.seen[:words]
	clear(d.seen)
	for ctr := uint64(0); len(out) < k; ctr++ {
		c := mix(seed, tagStraggler, ctr) % uint64(n)
		if bit := uint64(1) << (c % 64); d.seen[c/64]&bit == 0 {
			d.seen[c/64] |= bit
			out = append(out, int32(c))
		}
	}
	return out
}

// PickPairs appends k distinct unordered node pairs {i, j}, i < j < n,
// to out in selection order, packed as uint64(i)<<32 | uint64(j). Pairs
// already present in out (e.g. explicit DownLinks, distinct) are never
// re-drawn, so explicit and seeded faults compose without double
// counting. k is clipped to the number of remaining pairs.
func (d *Draws) PickPairs(seed uint64, k, n int, out []uint64) []uint64 {
	total := n * (n - 1) / 2
	if avail := total - len(out); k > avail {
		k = avail
	}
	if d.pairs == nil {
		d.pairs = make(map[uint64]struct{}, len(out)+k)
	}
	clear(d.pairs)
	for _, v := range out {
		d.pairs[v] = struct{}{}
	}
	want := len(out) + k
	for ctr := uint64(0); len(out) < want; ctr++ {
		c := mix(seed, tagLink, ctr) % uint64(n*n)
		i, j := int(c)/n, int(c)%n
		if i >= j {
			continue
		}
		key := uint64(i)<<32 | uint64(j)
		if _, dup := d.pairs[key]; !dup {
			d.pairs[key] = struct{}{}
			out = append(out, key)
		}
	}
	return out
}
