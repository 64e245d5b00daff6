package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// testNodes spins up n in-process nodes that know no one yet.
func testNodes(t *testing.T, n int) (*MemNetwork, []*Node) {
	t.Helper()
	net := NewMemNetwork()
	nodes := make([]*Node, n)
	for i := range nodes {
		addr := fmt.Sprintf("node-%d", i)
		node, err := NewNode(Config{Name: addr, Addr: addr, Transport: net})
		if err != nil {
			t.Fatal(err)
		}
		net.Attach(addr, node.HandleRPC)
		nodes[i] = node
	}
	return net, nodes
}

// testCluster spins up n in-process nodes, each joined once through
// node 0, as simd -join joins them.
func testCluster(t *testing.T, n int) (*MemNetwork, []*Node) {
	t.Helper()
	net, nodes := testNodes(t, n)
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(context.Background(), nodes[0].Self().Addr); err != nil {
			t.Fatalf("node %d join: %v", i, err)
		}
	}
	return net, nodes
}

func TestJoinPopulatesTables(t *testing.T) {
	_, nodes := testCluster(t, 5)
	for i, nd := range nodes {
		if got := nd.Table().Len(); got != 4 {
			t.Fatalf("node %d knows %d peers, want 4", i, got)
		}
	}
}

// TestConcurrentJoinsMakeFullMesh: nodes joining through node 0 all at
// once, as a cluster booting together does, still end in a full mesh:
// of any two joiners, the one that pinged node 0 later learns the other
// from it and announces itself when it asks. Under -race this is the
// test where a join's exchange races other nodes' inbound updates.
func TestConcurrentJoinsMakeFullMesh(t *testing.T) {
	const size = 20
	_, nodes := testNodes(t, size)
	var wg sync.WaitGroup
	for _, nd := range nodes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := nd.Join(context.Background(), nodes[0].Self().Addr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, nd := range nodes {
		if got := nd.Table().Len(); got != size-1 {
			t.Fatalf("node %d knows %d peers, want %d", i, got, size-1)
		}
	}
}

// TestOwnerAgreement: one join per node makes a full mesh, so every
// node names the same owner for a key, and that owner is the globally
// XOR-closest node — the invariant the cross-node singleflight leans
// on — at every cluster size simd runs at.
func TestOwnerAgreement(t *testing.T) {
	for _, size := range []int{5, 12, 20, 40} {
		_, nodes := testCluster(t, size)
		for i, nd := range nodes {
			if got := nd.Table().Len(); got != size-1 {
				t.Fatalf("%d nodes: node %d knows %d peers, want %d", size, i, got, size-1)
			}
		}
		for trial := 0; trial < 200; trial++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", trial)))
			key := "sha256:" + hex.EncodeToString(sum[:])
			target := KeyID(key)
			want := nodes[0].Self()
			for _, nd := range nodes[1:] {
				if Closer(target, nd.Self().ID, want.ID) {
					want = nd.Self()
				}
			}
			for i, nd := range nodes {
				if got := nd.Owner(key); got.ID != want.ID {
					t.Fatalf("%d nodes: key %s: node %d names owner %s, global closest is %s", size, key, i, got.ID, want.ID)
				}
			}
		}
	}
}

func TestExecRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 3)
	nodes[2].SetExecutor(func(_ context.Context, kind string, payload []byte) ([]byte, error) {
		return []byte(kind + ":" + string(payload)), nil
	})
	out, err := nodes[0].Exec(ctx, nodes[2].Self(), "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("exec returned %q", out)
	}
	// A node with no executor answers with an application error.
	if _, err := nodes[0].Exec(ctx, nodes[1].Self(), "echo", []byte("hi")); err == nil {
		t.Fatal("exec on executor-less node succeeded")
	}
	// Executor errors travel back as errors.
	nodes[2].SetExecutor(func(context.Context, string, []byte) ([]byte, error) {
		return nil, fmt.Errorf("boom")
	})
	if _, err := nodes[0].Exec(ctx, nodes[2].Self(), "echo", nil); err == nil {
		t.Fatal("executor error not propagated")
	} else if err.Error() == "" {
		t.Fatal("empty error")
	}
}

// TestDrainLeavesPolitely: a draining node's Draining responses age it
// out of peers' member sets.
func TestDrainLeavesPolitely(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 4)
	nodes[3].Drain()

	// Peers that talk to it see Draining and drop it from their tables.
	if _, err := nodes[0].Ping(ctx, nodes[3].Self().Addr); err != nil {
		t.Fatal(err)
	}
	for _, c := range nodes[0].Table().Contacts() {
		if c.ID == nodes[3].Self().ID {
			t.Fatal("draining node still in a peer's table after contact")
		}
	}
}

// TestTransportFailureEvictsContact: a dead peer disappears from the
// caller's table on the first failed RPC.
func TestTransportFailureEvictsContact(t *testing.T) {
	ctx := context.Background()
	net, nodes := testCluster(t, 3)
	net.SetDown(nodes[2].Self().Addr, true)
	if _, err := nodes[0].Exec(ctx, nodes[2].Self(), "x", []byte("y")); err == nil {
		t.Fatal("call to downed node succeeded")
	}
	for _, c := range nodes[0].Table().Contacts() {
		if c.ID == nodes[2].Self().ID {
			t.Fatal("downed node still in the table")
		}
	}
}

// TestCancelledCallKeepsPeer: a call that fails because the caller's
// own context ended says nothing about the peer, which stays a member.
func TestCancelledCallKeepsPeer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, nodes := testCluster(t, 3)
	if _, err := nodes[0].Exec(ctx, nodes[1].Self(), "x", []byte("y")); err == nil {
		t.Fatal("exec under a cancelled context succeeded")
	}
	if got := nodes[0].Table().Len(); got != 2 {
		t.Fatalf("a cancelled call left %d of 2 peers", got)
	}
}

// TestDrainingSenderStaysOut: once a peer has dropped a draining node,
// that node's own requests do not put it back in the peer's member set.
func TestDrainingSenderStaysOut(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 3)
	nodes[0].Drain()
	if _, err := nodes[1].Ping(ctx, nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	has := func() bool {
		for _, c := range nodes[1].Table().Contacts() {
			if c.ID == nodes[0].Self().ID {
				return true
			}
		}
		return false
	}
	if has() {
		t.Fatal("draining node still a member after answering a ping")
	}
	if _, err := nodes[0].Ping(ctx, nodes[1].Self().Addr); err != nil {
		t.Fatal(err)
	}
	if has() {
		t.Fatal("the draining node's ping put it back in the peer's member set")
	}
}

func TestStatus(t *testing.T) {
	_, nodes := testCluster(t, 3)
	st := nodes[0].Status()
	if st.Name != "node-0" || st.Addr != "node-0" || st.Draining {
		t.Fatalf("bad status identity: %+v", st)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("status lists %d peers, want 2", len(st.Peers))
	}
}

func TestJoinNoBootstrapReachable(t *testing.T) {
	net := NewMemNetwork()
	node, err := NewNode(Config{Name: "loner", Addr: "loner", Transport: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Join(context.Background(), "ghost-1", "ghost-2"); err == nil {
		t.Fatal("join with no reachable bootstrap succeeded")
	}
	// Joining with no addresses at all is fine: a single-node cluster.
	if err := node.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
}
