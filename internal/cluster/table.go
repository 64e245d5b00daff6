package cluster

import (
	"sort"
	"sync"
)

// Contact is one known peer: its ID plus the transport address RPCs
// reach it at.
type Contact struct {
	ID   ID     `json:"id"`
	Addr string `json:"addr"`
}

// MaxMembers bounds the member set. Every request a node serves names
// its caller, so the cap keeps a flood of invented callers from growing
// the table without bound; simd clusters run at a handful to tens of
// nodes, far below it.
const MaxMembers = 1024

// RoutingTable is the node's member set: every live peer it knows,
// keyed by ID. It is exact rather than a sample — one join fills it
// with the whole cluster (see Node.Join), so every node names the same
// owner for every key. A full set keeps its members and drops
// newcomers. Safe for concurrent use.
type RoutingTable struct {
	self ID

	mu      sync.Mutex
	members map[ID]Contact
}

// NewRoutingTable builds an empty member set for the node self.
func NewRoutingTable(self ID) *RoutingTable {
	return &RoutingTable{self: self, members: map[ID]Contact{}}
}

// Update records that c was just seen: a known member's address is
// refreshed, a fresh one joins the set unless it holds MaxMembers.
// Self and contacts without an ID or address are ignored.
func (t *RoutingTable) Update(c Contact) {
	if c.ID == t.self || c.ID.IsZero() || c.Addr == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.members[c.ID]; ok || len(t.members) < MaxMembers {
		t.members[c.ID] = c
	}
}

// Remove drops a contact (a peer that announced it is draining, or
// whose RPCs fail hard).
func (t *RoutingTable) Remove(id ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.members, id)
}

// Contacts returns every known peer (no particular order).
func (t *RoutingTable) Contacts() []Contact {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Contact, 0, len(t.members))
	for _, c := range t.members {
		out = append(out, c)
	}
	return out
}

// Len returns how many peers the table knows.
func (t *RoutingTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.members)
}

// KClosest returns up to n known contacts ordered by XOR distance to
// target, nearest first. The scan is over the whole set — cluster
// sizes here are tens, not millions, so the simple global sort is both
// exact and cheap (and trivially property-testable against a brute
// force, because it is one).
func (t *RoutingTable) KClosest(target ID, n int) []Contact {
	out := t.Contacts()
	sortByDistance(target, out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// sortByDistance orders contacts by XOR distance to target, nearest
// first; ID order (ascending) breaks exact ties, which cannot occur
// between distinct IDs.
func sortByDistance(target ID, cs []Contact) {
	sort.Slice(cs, func(i, j int) bool {
		return CompareDistance(target, cs[i].ID, cs[j].ID) < 0
	})
}
