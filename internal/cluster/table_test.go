package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestKClosestMatchesBruteForce is the property test for lookup
// ordering: against random tables and targets, KClosest must agree
// with an independent brute-force sort by XOR distance.
func TestKClosestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		self := randID(rng)
		tbl := NewRoutingTable(self)
		n := 1 + rng.Intn(60)
		var all []Contact
		for i := 0; i < n; i++ {
			c := Contact{ID: randID(rng), Addr: fmt.Sprintf("n%d", i)}
			tbl.Update(c)
			all = append(all, c)
		}
		// Brute-force over what the table kept.
		kept := tbl.Contacts()
		target := randID(rng)
		want := append([]Contact(nil), kept...)
		sort.Slice(want, func(i, j int) bool {
			return CompareDistance(target, want[i].ID, want[j].ID) < 0
		})
		k := 1 + rng.Intn(8)
		if len(want) > k {
			want = want[:k]
		}
		got := tbl.KClosest(target, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: KClosest returned %d contacts, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d: position %d: got %s want %s", trial, i, got[i].ID, want[i].ID)
			}
		}
		// Ordering invariant: distances are non-decreasing.
		for i := 1; i < len(got); i++ {
			if Closer(target, got[i].ID, got[i-1].ID) {
				t.Fatalf("trial %d: KClosest not sorted at %d", trial, i)
			}
		}
	}
}

// testContacts builds n distinct contacts for the zero self ID.
func testContacts(n int) (ID, []Contact) {
	var self ID // zero
	out := make([]Contact, n)
	for i := range out {
		var id ID
		id[0] = 0x80
		id[IDBytes-1] = byte(i + 1)
		id[IDBytes-2] = byte((i + 1) >> 8)
		out[i] = Contact{ID: id, Addr: fmt.Sprintf("peer-%d", i)}
	}
	return self, out
}

// TestTableStaysAtCap: a member set updated past MaxMembers stays at
// the cap, keeps its members (newcomers are dropped), still refreshes a
// known member's address, and takes a newcomer again once a member
// leaves.
func TestTableStaysAtCap(t *testing.T) {
	self, cs := testContacts(MaxMembers + 10)
	tbl := NewRoutingTable(self)
	for _, c := range cs {
		tbl.Update(c)
	}
	if got := tbl.Len(); got != MaxMembers {
		t.Fatalf("table has %d contacts after %d updates, want the cap %d", got, len(cs), MaxMembers)
	}
	for _, c := range tbl.Contacts() {
		if c.ID == cs[MaxMembers].ID {
			t.Fatal("a newcomer displaced a member of a full set")
		}
	}
	moved := cs[0]
	moved.Addr = "peer-0-new-addr"
	tbl.Update(moved)
	if got := tbl.KClosest(moved.ID, 1); len(got) != 1 || got[0] != moved {
		t.Fatalf("full set did not refresh a known member: %v", got)
	}
	tbl.Remove(cs[1].ID)
	tbl.Update(cs[MaxMembers])
	if got := tbl.KClosest(cs[MaxMembers].ID, 1); tbl.Len() != MaxMembers || got[0].ID != cs[MaxMembers].ID {
		t.Fatalf("freed slot not taken: %d members, nearest %v", tbl.Len(), got)
	}
}

// TestUpdateRefreshesKnownContact: re-seeing a contact refreshes its
// address without growing the set.
func TestUpdateRefreshesKnownContact(t *testing.T) {
	self, cs := testContacts(8)
	tbl := NewRoutingTable(self)
	for _, c := range cs {
		tbl.Update(c)
	}
	moved := cs[0]
	moved.Addr = "peer-0-new-addr"
	tbl.Update(moved)
	if tbl.Len() != len(cs) {
		t.Fatalf("table has %d contacts, want %d", tbl.Len(), len(cs))
	}
	for _, c := range tbl.Contacts() {
		if c.ID == moved.ID && c.Addr != "peer-0-new-addr" {
			t.Fatalf("address not refreshed: %s", c.Addr)
		}
	}
}

// TestTableIgnoresSelfAndZero: the table never stores its own node or
// malformed contacts.
func TestTableIgnoresSelfAndZero(t *testing.T) {
	self := NodeID("self")
	tbl := NewRoutingTable(self)
	tbl.Update(Contact{ID: self, Addr: "me"})
	tbl.Update(Contact{Addr: "zero-id"})
	tbl.Update(Contact{ID: NodeID("x")}) // empty addr
	if tbl.Len() != 0 {
		t.Fatalf("table stored %d invalid contacts", tbl.Len())
	}
}

func TestRemove(t *testing.T) {
	self, cs := testContacts(3)
	tbl := NewRoutingTable(self)
	for _, c := range cs {
		tbl.Update(c)
	}
	tbl.Remove(cs[1].ID)
	if tbl.Len() != 2 {
		t.Fatalf("table has %d contacts after remove, want 2", tbl.Len())
	}
	for _, c := range tbl.Contacts() {
		if c.ID == cs[1].ID {
			t.Fatal("removed contact still present")
		}
	}
	tbl.Remove(randID(rand.New(rand.NewSource(1)))) // unknown: no-op
	if tbl.Len() != 2 {
		t.Fatal("removing an unknown contact changed the table")
	}
}
