package service

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
)

// holdStores is a MemNetwork that parks every STORE until release is
// closed; other RPCs pass straight through.
type holdStores struct {
	*cluster.MemNetwork
	release chan struct{}
	held    atomic.Int64
}

func (h *holdStores) Call(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	if req.Op == cluster.OpStore {
		h.held.Add(1)
		select {
		case <-h.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return h.MemNetwork.Call(ctx, addr, req)
}

// newHeldCluster joins three nodes on a holdStores network and attaches
// a manager to the first.
func newHeldCluster(t *testing.T) (*Manager, []*cluster.Node, *holdStores) {
	t.Helper()
	net := &holdStores{MemNetwork: cluster.NewMemNetwork(), release: make(chan struct{})}
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		addr := fmt.Sprintf("mem://held-%d", i)
		n, err := cluster.NewNode(cluster.Config{Name: fmt.Sprintf("held-%d", i), Addr: addr, Transport: net})
		if err != nil {
			t.Fatal(err)
		}
		net.Attach(addr, n.HandleRPC)
		nodes[i] = n
	}
	ctx := context.Background()
	for _, n := range nodes[1:] {
		if err := n.Join(ctx, nodes[0].Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(Options{Engine: engine.New(1), Cluster: nodes[0]})
	if err != nil {
		t.Fatal(err)
	}
	return m, nodes, net
}

// queuePoints runs n fresh points through a cluster run's point store,
// as a grid run's planner would, and returns their digests.
func queuePoints(m *Manager, n int) []string {
	run := &clusterRun{m: m}
	digests := make([]string, n)
	for i := range digests {
		d := fmt.Sprintf("sha256:%064x", i)
		run.PutPoint(d, core.ScenarioPoint{Digest: d})
		digests[i] = d
	}
	run.release()
	return digests
}

// holds reports whether n's blob store has key.
func holds(n *cluster.Node, key string) bool {
	_, _, _, ok := n.GetCached(key)
	return ok
}

// waitHeld waits until n STOREs are parked.
func waitHeld(t *testing.T, net *holdStores, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for net.held.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d STOREs parked, want %d", net.held.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicationQueueBoundsGoroutines: 5,000 fresh points queued while
// every STORE hangs cost at most the replicator pool in goroutines, not
// one per blob, and once the STOREs go through, Drain leaves every
// point on every replica.
func TestReplicationQueueBoundsGoroutines(t *testing.T) {
	m, nodes, net := newHeldCluster(t)
	before := runtime.NumGoroutine()
	digests := queuePoints(m, 5000)
	waitHeld(t, net, clusterReplicators)
	if grew := runtime.NumGoroutine() - before; grew > clusterReplicators+2 {
		t.Fatalf("queueing 5000 points started %d goroutines, want at most %d", grew, clusterReplicators+2)
	}
	if q := m.repl.queued(); q != len(digests) {
		t.Fatalf("%d blobs queued or in flight, want %d", q, len(digests))
	}
	close(net.release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		for _, d := range digests {
			if !holds(n, d) {
				t.Fatalf("node %d lacks point %s after Drain", i, d)
			}
		}
	}
}

// TestReplicationDrainWaitsForQueue: Drain does not return while queued
// blobs are unsent — it gives up with its context's error instead — and
// returns once they reach every reachable replica.
func TestReplicationDrainWaitsForQueue(t *testing.T) {
	m, nodes, net := newHeldCluster(t)
	digests := queuePoints(m, 50)
	waitHeld(t, net, 1)
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := m.Drain(short); err == nil {
		t.Fatal("Drain returned while STOREs were still held")
	}
	close(net.release)
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if _, err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if q := m.repl.queued(); q != 0 {
		t.Fatalf("%d blobs still queued after Drain", q)
	}
	for i, n := range nodes[1:] {
		for _, d := range digests {
			if !holds(n, d) {
				t.Fatalf("peer %d lacks point %s after Drain", i+1, d)
			}
		}
	}
}
