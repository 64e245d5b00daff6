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

// holds reports whether n's blob store has key.
func holds(n *Node, key string) bool {
	_, _, _, ok := n.GetCached(key)
	return ok
}

// store is what a replicating caller does: hold b when n is in its
// replica set, and send it to the set's peers. It returns how many
// nodes kept it.
func store(ctx context.Context, n *Node, b Blob) int {
	kept := 0
	if n.Hold(b) {
		kept++
	}
	acks, _ := n.Replicate(ctx, []Blob{b})
	return kept + acks[0]
}

// TestReplicateReachesSmallCluster: on a cluster smaller than K every
// node is in every replica set, so a held and replicated blob lands on
// all of them with its kind and bytes.
func TestReplicateReachesSmallCluster(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 5)
	b := Blob{Key: "sha256:aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", Kind: "point", Value: []byte("the point")}
	if kept := store(ctx, nodes[1], b); kept != 5 {
		t.Fatalf("%d of 5 nodes kept the blob", kept)
	}
	for i, nd := range nodes {
		got, kind, _, ok := nd.GetCached(b.Key)
		if !ok || string(got) != string(b.Value) || kind != b.Kind {
			t.Fatalf("node %d holds (%v, %q, %q)", i, ok, kind, got)
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

// TestDrainLeavesPolitely: a draining node refuses fresh keys, keeps
// the ones it holds, and its Draining responses age it out of peers'
// member sets.
func TestDrainLeavesPolitely(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 4)
	held := "sha256:cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
	store(ctx, nodes[3], Blob{Key: held, Kind: "blob", Value: []byte("kept")})
	if !holds(nodes[3], held) {
		t.Fatal("node 3 should hold the key (cluster smaller than K)")
	}

	nodes[3].Drain()

	// Fresh stores are refused...
	fresh := &Request{Op: OpStore, From: nodes[0].Self(), Blobs: []Blob{{Key: "sha256:dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd", Kind: "blob", Value: []byte("new")}}}
	if resp := nodes[3].HandleRPC(ctx, fresh); resp.Stored || resp.Err == "" || !resp.Draining {
		t.Fatalf("draining node accepted a fresh key: %+v", resp)
	}
	// ...but held keys stay, and re-replication of them is fine.
	if v, _, _, ok := nodes[3].GetCached(held); !ok || string(v) != "kept" {
		t.Fatal("draining node dropped a held value")
	}
	if resp := nodes[3].HandleRPC(ctx, &Request{Op: OpStore, From: nodes[0].Self(), Blobs: []Blob{{Key: held, Kind: "blob", Value: []byte("kept")}}}); !resp.Stored {
		t.Fatal("draining node refused re-replication of a held key")
	}

	// Peers that talk to it see Draining and drop it from their tables.
	if _, err := nodes[0].Ping(ctx, nodes[3].Self().Addr); err != nil {
		t.Fatal(err)
	}
	for _, c := range nodes[0].Table().Contacts() {
		if c.ID == nodes[3].Self().ID {
			t.Fatal("draining node still in a peer's table after contact")
		}
	}
	// And the draining node itself skips its local replica on stores.
	k2 := "sha256:eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
	store(ctx, nodes[3], Blob{Key: k2, Kind: "blob", Value: []byte("flushed")})
	if holds(nodes[3], k2) {
		t.Fatal("draining node kept a local replica of flushed data")
	}
	found := false
	for _, nd := range nodes[:3] {
		if holds(nd, k2) {
			found = true
		}
	}
	if !found {
		t.Fatal("flushed value reached no healthy peer")
	}
}

// TestReplicateBatchesPerPeer: Replicate sends each peer one STORE
// listing every blob it should hold, and every replica ends up with
// every blob.
func TestReplicateBatchesPerPeer(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 4)
	blobs := make([]Blob, 10)
	for i := range blobs {
		blobs[i] = Blob{Key: fmt.Sprintf("sha256:%064x", i), Kind: "point", Value: []byte{byte(i + 1)}}
	}
	acks, stores := nodes[0].Replicate(ctx, blobs)
	if stores != 3 {
		t.Fatalf("%d STOREs for 10 blobs to 3 peers, want 3", stores)
	}
	for i, a := range acks {
		if a != 3 {
			t.Fatalf("blob %d acknowledged by %d peers, want 3", i, a)
		}
	}
	for i, nd := range nodes {
		for _, b := range blobs {
			if holds(nd, b.Key) != (i != 0) {
				t.Fatalf("node %d holds %s: %v (Replicate leaves the sender's copy to Hold)", i, b.Key, holds(nd, b.Key))
			}
		}
	}
}

// TestDrainingNodeRefusesListWithFreshKey: a draining node takes a blob
// list only when it already holds every key in it.
func TestDrainingNodeRefusesListWithFreshKey(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 2)
	held := Blob{Key: "sha256:held", Kind: "blob", Value: []byte("kept")}
	store(ctx, nodes[0], held)
	nodes[1].Drain()
	fresh := Blob{Key: "sha256:fresh", Kind: "blob", Value: []byte("new")}
	if resp := nodes[1].HandleRPC(ctx, &Request{Op: OpStore, From: nodes[0].Self(), Blobs: []Blob{held, fresh}}); resp.Stored || resp.Err == "" {
		t.Fatalf("draining node took a list with a fresh key: %+v", resp)
	}
	if holds(nodes[1], fresh.Key) {
		t.Fatal("refused list left its fresh key behind")
	}
	if resp := nodes[1].HandleRPC(ctx, &Request{Op: OpStore, From: nodes[0].Self(), Blobs: []Blob{held}}); !resp.Stored {
		t.Fatalf("draining node refused a list of held keys: %+v", resp)
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
// that node's own requests — the STOREs its drain flush sends — do not
// put it back in the peer's member set.
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
	acks, _ := nodes[0].Replicate(ctx, []Blob{{Key: "sha256:flushed", Kind: "blob", Value: []byte("v")}})
	if acks[0] == 0 || !holds(nodes[1], "sha256:flushed") {
		t.Fatal("the draining node's flush did not reach its peer")
	}
	if has() {
		t.Fatal("the draining node's STORE put it back in the peer's member set")
	}
}

// TestReplicateStaysInReplicaSet: on a cluster larger than K, a held
// and replicated blob lands on exactly the key's K closest members.
func TestReplicateStaysInReplicaSet(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 12)
	b := Blob{Key: "sha256:abcdabcdabcdabcdabcdabcdabcdabcdabcdabcdabcdabcdabcdabcdabcdabcd", Kind: "point", Value: []byte("v")}
	if kept := store(ctx, nodes[0], b); kept != DefaultK {
		t.Fatalf("%d nodes kept the blob, want %d", kept, DefaultK)
	}
	owners := map[ID]bool{}
	for _, c := range nodes[0].Owners(b.Key) {
		owners[c.ID] = true
	}
	for i, nd := range nodes {
		if holds(nd, b.Key) != owners[nd.Self().ID] {
			t.Fatalf("node %d holds the blob: %v, in its replica set: %v", i, holds(nd, b.Key), owners[nd.Self().ID])
		}
	}
}

func TestStatus(t *testing.T) {
	ctx := context.Background()
	_, nodes := testCluster(t, 3)
	key := "sha256:abababababababababababababababababababababababababababababababab"
	store(ctx, nodes[0], Blob{Key: key, Kind: "point", Value: []byte("v")})
	st := nodes[0].Status()
	if st.Name != "node-0" || st.Addr != "node-0" || st.Draining {
		t.Fatalf("bad status identity: %+v", st)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("status lists %d peers, want 2", len(st.Peers))
	}
	if st.StoredKeys != 1 || st.KeysByKind["point"] != 1 {
		t.Fatalf("bad key accounting: %+v", st)
	}
	if st.K != DefaultK {
		t.Fatalf("K = %d", st.K)
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
