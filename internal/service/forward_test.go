// Internal test of a failed forward: it holds the manager's only
// execution slot, so a job whose owner cannot be reached waits for it,
// and reads the job's state while it waits.
package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
)

// TestClusterFallbackJobWaitsPending: a job whose forward failed reads
// pending, with no start time, until it holds a local slot; then it
// runs and finishes here.
func TestClusterFallbackJobWaitsPending(t *testing.T) {
	net := cluster.NewMemNetwork()
	nodes := make([]*cluster.Node, 2)
	for i := range nodes {
		addr := fmt.Sprintf("mem://fallback-%d", i)
		n, err := cluster.NewNode(cluster.Config{Name: fmt.Sprintf("fallback-%d", i), Addr: addr, Transport: net})
		if err != nil {
			t.Fatal(err)
		}
		net.Attach(addr, n.HandleRPC)
		nodes[i] = n
	}
	ctx := context.Background()
	if err := nodes[1].Join(ctx, nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{Engine: engine.New(1), Cluster: nodes[0]})
	if err != nil {
		t.Fatal(err)
	}
	// A one-point spec the other node owns.
	var req ScenarioRequest
	for bw := 125.0; ; bw += 125 {
		req = ScenarioRequest{App: "cg", Ranks: 4, Axes: []core.Axis{core.BandwidthAxis(bw)}}
		tk, err := m.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		if nodes[0].Owner(tk.digest).ID == nodes[1].Self().ID {
			break
		}
	}
	net.SetDown(nodes[1].Self().Addr, true)

	fallbacks := mClusterForwards.With("fallback")
	before := fallbacks.Value()
	m.slots <- struct{}{} // the job waits for this slot once its forward fails
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fallbacks.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("the forward to an unreachable owner never fell back")
		}
		time.Sleep(time.Millisecond)
	}
	if st := j.Status(false); st.State != JobPending || st.StartedAt != nil {
		t.Fatalf("a job waiting for a slot after a failed forward reads %s, started at %v; want pending, not started", st.State, st.StartedAt)
	}
	<-m.slots
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(false); st.State != JobDone || st.StartedAt == nil {
		t.Fatalf("finished job reads %s, started at %v; want done with a start time", st.State, st.StartedAt)
	}
}
