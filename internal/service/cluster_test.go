// Cluster acceptance tests: three managers joined through the
// in-process transport must serve scenario results byte-identical to a
// standalone manager, run a hot spec exactly once cluster-wide under
// concurrent submission to different nodes (run with -race), serve
// reruns against a different node from the cooperative cache with zero
// new engine jobs, and stay available while a member drains.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/tracer"
)

// newTestCluster builds an n-node cluster: each member is a full stack
// (engine, manager, handler, httptest server, client) whose cluster
// node rides a shared MemNetwork. Each node joins once, through node 0,
// as simd -join joins; that alone gives every node every peer, so every
// node names the same owner for every key.
func newTestCluster(t *testing.T, n int) ([]*service.Manager, []*client.Client) {
	mgrs, cls, _ := newCountingCluster(t, n)
	return mgrs, cls
}

// rpcCounter is a MemNetwork that counts the RPCs it carries, by op.
type rpcCounter struct {
	*cluster.MemNetwork
	mu   sync.Mutex
	sent map[cluster.Op]int
}

func (c *rpcCounter) Call(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	c.mu.Lock()
	c.sent[req.Op]++
	c.mu.Unlock()
	return c.MemNetwork.Call(ctx, addr, req)
}

// take returns the counts since the last take and starts over.
func (c *rpcCounter) take() map[cluster.Op]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = map[cluster.Op]int{}
	return out
}

// newCountingCluster is newTestCluster with its RPCs counted.
func newCountingCluster(t *testing.T, n int) ([]*service.Manager, []*client.Client, *rpcCounter) {
	t.Helper()
	net := &rpcCounter{MemNetwork: cluster.NewMemNetwork(), sent: map[cluster.Op]int{}}
	nodes := make([]*cluster.Node, n)
	mgrs := make([]*service.Manager, n)
	cls := make([]*client.Client, n)
	for i := range nodes {
		addr := fmt.Sprintf("mem://node-%d", i)
		node, err := cluster.NewNode(cluster.Config{
			Name:      fmt.Sprintf("node-%d", i),
			Addr:      addr,
			Transport: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Attach(addr, node.HandleRPC)
		mgr, err := service.NewManager(service.Options{Engine: engine.New(2), Cluster: node})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(service.NewHandler(mgr))
		t.Cleanup(srv.Close)
		nodes[i], mgrs[i], cls[i] = node, mgr, client.New(srv.URL, srv.Client())
	}
	ctx := context.Background()
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(ctx, nodes[0].Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range nodes {
		if got := nd.Table().Len(); got != n-1 {
			t.Fatalf("node %d knows %d peers, want %d", i, got, n-1)
		}
	}
	net.take()
	return mgrs, cls, net
}

// fileBlob files a blob as a node replicating a fresh point does: held
// on n when n is in its replica set, and sent to the set's peers. It
// returns how many nodes kept it.
func fileBlob(ctx context.Context, n *cluster.Node, b cluster.Blob) int {
	kept := 0
	if n.Hold(b) {
		kept++
	}
	acks, _ := n.Replicate(ctx, []cluster.Blob{b})
	return kept + acks[0]
}

// totalStarted sums engine job starts across the cluster — the counter
// the exactly-once and zero-recompute assertions diff.
func totalStarted(mgrs []*service.Manager) uint64 {
	var sum uint64
	for _, m := range mgrs {
		sum += m.Engine().Stats().Started
	}
	return sum
}

// gridSpec is the fan-out workload: a 2x2 grid whose points shard
// across the cluster by point digest.
func gridSpec() service.ScenarioRequest {
	return service.ScenarioRequest{
		App: "cg", Ranks: 8,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
		Axes: []core.Axis{
			core.BandwidthAxis(125, 500),
			core.MappingAxis("block", "rr"),
		},
		Output: "traffic",
	}
}

// TestClusterScenarioByteIdentical is the headline acceptance path: a
// gridded scenario fanned across a 3-node cluster returns bytes
// identical to a standalone manager's, a rerun against each other node
// is served from the cooperative cache with zero new engine jobs
// cluster-wide, and the computed points land in the DHT as replicated
// blobs. The per-kind endpoints ride the same path: an analysis and a
// bandwidth sweep are byte-identical too, and so are their reruns.
func TestClusterScenarioByteIdentical(t *testing.T) {
	ctx := context.Background()
	req := gridSpec()
	preset := &service.PlatformSpec{Preset: "marenostrum-4x"}
	inputs := []struct {
		name string
		call func(*client.Client) ([]byte, error)
	}{
		{"scenario", func(cl *client.Client) ([]byte, error) { return cl.ScenarioRaw(ctx, req) }},
		{"analyze", func(cl *client.Client) ([]byte, error) {
			return cl.AnalyzeRaw(ctx, service.AnalyzeRequest{App: "cg", Ranks: 8, Platform: preset})
		}},
		{"bandwidth sweep", func(cl *client.Client) ([]byte, error) {
			sweep, err := cl.SweepBandwidth(ctx, service.BandwidthSweepRequest{
				App: "cg", Ranks: 8, Platform: preset, Bandwidths: []float64{125, 500, 2000},
			})
			if err != nil {
				return nil, err
			}
			return json.Marshal(sweep)
		}},
	}

	_, standalone := newService(t, 2)
	want := make([][]byte, len(inputs))
	for i, in := range inputs {
		var err error
		if want[i], err = in.call(standalone); err != nil {
			t.Fatalf("standalone %s: %v", in.name, err)
		}
	}

	mgrs, cls := newTestCluster(t, 3)
	for i, in := range inputs {
		first, err := in.call(cls[0])
		if err != nil {
			t.Fatalf("clustered %s: %v", in.name, err)
		}
		if !bytes.Equal(want[i], first) {
			t.Fatalf("clustered %s differs from standalone:\n%s\n%s", in.name, want[i], first)
		}
	}
	after := totalStarted(mgrs)
	// The same requests against the two other nodes: the owner's result
	// and point caches answer through the forward path, so no engine
	// anywhere starts a job.
	for i := 1; i < 3; i++ {
		for k, in := range inputs {
			got, err := in.call(cls[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want[k], got) {
				t.Fatalf("%s rerun via node %d not byte-identical", in.name, i)
			}
		}
	}
	if now := totalStarted(mgrs); now != after {
		t.Fatalf("rerun against other nodes spawned engine jobs: %d -> %d", after, now)
	}
	// Every computed point replicates into the DHT (asynchronously):
	// eventually each of the 4 points is held by all 3 nodes (3 < K).
	deadline := time.Now().Add(10 * time.Second)
	for {
		points := 0
		for _, m := range mgrs {
			points += m.Cluster().Status().KeysByKind[service.BlobPoint]
		}
		if points >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("point blobs not replicated: %d cluster-wide, want 12", points)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRejectsMisfiledPointBlob: a valid point blob replicated
// under another point's key — a misfiled or stale replica — is never
// served as that point's row; the grid still returns standalone bytes.
func TestClusterRejectsMisfiledPointBlob(t *testing.T) {
	ctx := context.Background()
	req := gridSpec()
	_, standalone := newService(t, 2)
	want, err := standalone.ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var res core.ScenarioResult
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	mgrs, cls := newTestCluster(t, 3)
	for _, pt := range res.Points[1:] {
		if n := fileBlob(ctx, mgrs[0].Cluster(), cluster.Blob{Key: pt.Digest, Kind: service.BlobPoint, Value: blob}); n != 3 {
			t.Fatalf("misfiled blob reached %d of 3 nodes", n)
		}
	}
	got, err := cls[0].ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("misfiled point blob served as a grid row:\n%s\n%s", want, got)
	}
}

// TestClusterForwardRejectsMalformedOwnerResult: a per-kind request
// forwarded to an owner whose answer has the spec's digest and point
// count but no measurements falls back to running locally — the same
// bytes as standalone — instead of crashing the node on render.
func TestClusterForwardRejectsMalformedOwnerResult(t *testing.T) {
	ctx := context.Background()
	bandwidths := []float64{125, 500, 2000}
	sweep := service.BandwidthSweepRequest{App: "cg", Ranks: 4, Bandwidths: bandwidths}
	_, standalone := newService(t, 2)
	want, err := standalone.SweepBandwidth(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := standalone.Scenario(ctx, service.ScenarioRequest{
		App: "cg", Ranks: 4,
		Flavors: []string{"overlap-real"},
		Axes:    []core.Axis{core.BandwidthAxis(bandwidths...)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bogus, err := json.Marshal(core.ScenarioResult{
		ScenarioHeader: core.ScenarioHeader{SpecDigest: scen.SpecDigest},
		Points:         make([]core.ScenarioPoint, len(bandwidths)),
	})
	if err != nil {
		t.Fatal(err)
	}
	mgrs, cls := newTestCluster(t, 3)
	for _, m := range mgrs {
		m.Cluster().SetExecutor(func(context.Context, string, []byte) ([]byte, error) { return bogus, nil })
	}
	owner := mgrs[0].Cluster().Owner(scen.SpecDigest)
	i := 0
	for mgrs[i].Cluster().Self().ID == owner.ID {
		i++
	}
	got, err := cls[i].SweepBandwidth(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("sweep after a malformed owner answer differs from standalone:\n%s\n%s", wantJSON, gotJSON)
	}
}

// TestClusterExactlyOnceConcurrent fires N identical submissions
// concurrently at different nodes and proves the computation ran once
// cluster-wide: the summed engine job counters advance by exactly the
// standalone cost of the spec, and all N responses are byte-identical.
// -race covers the cross-node singleflight's locking.
func TestClusterExactlyOnceConcurrent(t *testing.T) {
	ctx := context.Background()
	req := service.ScenarioRequest{App: "cg", Ranks: 4, Output: "report"}

	// The spec's standalone cost in engine jobs — what exactly-once must
	// hold the cluster to.
	standaloneMgr, standalone := newService(t, 2)
	want, err := standalone.ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cost := standaloneMgr.Engine().Stats().Started

	mgrs, cls := newTestCluster(t, 3)
	before := totalStarted(mgrs)
	const n = 9
	responses := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = cls[i%3].ScenarioRaw(ctx, req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if !bytes.Equal(want, responses[i]) {
			t.Fatalf("submission %d not byte-identical to standalone", i)
		}
	}
	if delta := totalStarted(mgrs) - before; delta != cost {
		t.Fatalf("%d concurrent submissions cost %d engine jobs cluster-wide, want exactly %d", n, delta, cost)
	}
}

// TestClusterExactlyOnceTwentyNodes: on 20 nodes joined once each, K
// distinct one-point specs, each submitted concurrently at every node,
// cost exactly what the K specs cost a standalone node, and every reply
// is standalone's bytes. A node that misnamed a spec's owner would
// forward it to a node that computes it a second time.
func TestClusterExactlyOnceTwentyNodes(t *testing.T) {
	ctx := context.Background()
	specs := make([]service.ScenarioRequest, cluster.DefaultK)
	want := make([][]byte, len(specs))
	standaloneMgr, standalone := newService(t, 2)
	for i := range specs {
		specs[i] = service.ScenarioRequest{
			App: "cg", Ranks: 4,
			Axes:   []core.Axis{core.BandwidthAxis(float64(125 * (i + 1)))},
			Output: "traffic",
		}
		var err error
		if want[i], err = standalone.ScenarioRaw(ctx, specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cost := standaloneMgr.Engine().Stats().Started

	mgrs, cls := newTestCluster(t, 20)
	before := totalStarted(mgrs)
	var wg sync.WaitGroup
	for i := range specs {
		for n := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := cls[n].ScenarioRaw(ctx, specs[i])
				if err != nil {
					t.Errorf("spec %d at node %d: %v", i, n, err)
				} else if !bytes.Equal(want[i], got) {
					t.Errorf("spec %d at node %d not byte-identical to standalone", i, n)
				}
			}()
		}
	}
	wg.Wait()
	if delta := totalStarted(mgrs) - before; delta != cost {
		t.Fatalf("%d specs at each of 20 nodes cost %d engine jobs cluster-wide, want exactly %d", len(specs), delta, cost)
	}
}

// TestClusterDrainStaysAvailable: a draining member refuses new work
// with 503 while the rest of the cluster keeps serving correct bytes —
// forwards to the draining owner fall back to computing locally. The
// enriched /healthz reports cluster identity and the drain state.
func TestClusterDrainStaysAvailable(t *testing.T) {
	ctx := context.Background()
	req := service.ScenarioRequest{App: "bt", Ranks: 4, Output: "report"}

	_, standalone := newService(t, 2)
	want, err := standalone.ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	mgrs, cls := newTestCluster(t, 3)
	h, err := cls[0].Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining || h.Node != "node-0" || h.NodeID == "" || h.ClusterPeers != 2 {
		t.Fatalf("healthz before drain: %+v", h)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := mgrs[0].Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if h, err = cls[0].Health(ctx); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("healthz while draining: %+v", h)
	}
	if _, err := cls[0].Scenario(ctx, req); err == nil {
		t.Fatal("draining node accepted a new scenario")
	}
	// The rest of the cluster still serves the spec — locally if its
	// owner is the draining node.
	got, err := cls[1].ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("scenario served during a peer's drain not byte-identical")
	}
}

// owning returns the index of the member that owns key.
func owning(t *testing.T, mgrs []*service.Manager, key string) int {
	t.Helper()
	owner := mgrs[0].Cluster().Owner(key)
	for i, m := range mgrs {
		if m.Cluster().Self().ID == owner.ID {
			return i
		}
	}
	t.Fatalf("no member owns %s", key)
	return -1
}

// remoteGroups groups a result's points by the owner node i's table
// names for them, leaving out the points node i owns itself.
func remoteGroups(mgrs []*service.Manager, i int, res *core.ScenarioResult) map[cluster.ID][]core.ScenarioPoint {
	node := mgrs[i].Cluster()
	groups := map[cluster.ID][]core.ScenarioPoint{}
	for _, pt := range res.Points {
		if o := node.Owner(pt.Digest); o.ID != node.Self().ID {
			groups[o.ID] = append(groups[o.ID], pt)
		}
	}
	return groups
}

// standaloneResult runs req on a standalone manager and returns its
// bytes and decoded result.
func standaloneResult(t *testing.T, req service.ScenarioRequest) ([]byte, *core.ScenarioResult) {
	t.Helper()
	_, standalone := newService(t, 2)
	raw, err := standalone.ScenarioRaw(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var res core.ScenarioResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return raw, &res
}

// TestClusterGridOneExecPerOwner: an 8-point grid sent to the node that
// owns its spec sends each remote point owner exactly one EXEC and
// returns standalone's bytes.
func TestClusterGridOneExecPerOwner(t *testing.T) {
	ctx := context.Background()
	req := gridSpec()
	req.Axes = []core.Axis{core.BandwidthAxis(125, 250, 500, 1000), core.MappingAxis("block", "rr")}
	want, res := standaloneResult(t, req)

	mgrs, cls, net := newCountingCluster(t, 3)
	home := owning(t, mgrs, res.SpecDigest)
	owners := len(remoteGroups(mgrs, home, res))
	if owners == 0 {
		t.Fatal("every point is the home node's own: the grid exercises no fan-out")
	}
	got, err := cls[home].ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("fanned-out grid differs from standalone:\n%s\n%s", want, got)
	}
	if sent := net.take(); sent[cluster.OpExec] != owners {
		t.Fatalf("%d EXECs for %d remote owners, want one each", sent[cluster.OpExec], owners)
	}
}

// TestClusterOwnerSpecsKeepGridBytes: a streamed grid over value,
// mapping and count axes — bandwidth × mapping × chunks × stragglers —
// fans out as zipped owner specs whose lists repeat coordinates, and
// every point equals standalone's.
func TestClusterOwnerSpecsKeepGridBytes(t *testing.T) {
	ctx := context.Background()
	req := service.ScenarioRequest{
		App: "cg", Ranks: 8,
		Platform:     &service.PlatformSpec{Preset: "marenostrum-4x"},
		Degradations: &faults.Spec{StragglerFactor: 2, Seed: 3},
		Axes: []core.Axis{
			core.BandwidthAxis(125, 500),
			core.MappingAxis("block", "rr"),
			core.ChunksAxis(2, 4),
			core.StragglersAxis(0, 1),
		},
	}
	_, res := standaloneResult(t, req)

	mgrs, cls, net := newCountingCluster(t, 3)
	home := owning(t, mgrs, res.SpecDigest)
	groups := remoteGroups(mgrs, home, res)
	repeats := false
	for _, pts := range groups {
		seen := map[core.Coord]bool{}
		for _, pt := range pts {
			for _, c := range pt.Coords {
				repeats = repeats || seen[c]
				seen[c] = true
			}
		}
	}
	if !repeats {
		t.Fatal("no owner's point list repeats a coordinate: the grid does not exercise zipped repeats")
	}
	st, err := cls[home].ScenarioStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; ; i++ {
		pt, err := st.Next()
		if errors.Is(err, io.EOF) {
			if i != len(res.Points) {
				t.Fatalf("stream ended after %d of %d points", i, len(res.Points))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(res.Points[i])
		got, _ := json.Marshal(pt)
		if !bytes.Equal(want, got) {
			t.Fatalf("point %d differs from standalone:\n%s\n%s", i, want, got)
		}
	}
	if sent := net.take(); sent[cluster.OpExec] != len(groups) {
		t.Fatalf("%d EXECs for %d remote owners, want one each", sent[cluster.OpExec], len(groups))
	}
}

// TestClusterPeerSpecNeverFansOut: a grid that arrives from a peer is
// computed where it lands, with no further EXEC, even though that
// node's table names other owners for some of its points.
func TestClusterPeerSpecNeverFansOut(t *testing.T) {
	ctx := context.Background()
	req := gridSpec()
	want, res := standaloneResult(t, req)

	mgrs, _, net := newCountingCluster(t, 3)
	recv := -1
	for i := range mgrs {
		if len(remoteGroups(mgrs, i, res)) > 0 {
			recv = i
			break
		}
	}
	if recv < 0 {
		t.Fatal("no node's table names another owner for any point")
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	sender := mgrs[(recv+1)%len(mgrs)].Cluster()
	got, err := sender.Exec(ctx, mgrs[recv].Cluster().Self(), service.ExecKindScenario, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(got)) {
		t.Fatalf("peer-sent grid differs from standalone:\n%s\n%s", want, got)
	}
	if sent := net.take(); sent[cluster.OpExec] != 1 {
		t.Fatalf("a peer-sent grid fanned out: %d EXECs, want only the sender's 1", sent[cluster.OpExec])
	}
}

// TestClusterOwnerServesHeldPointBlob: a one-point spec sent to the
// owner of a point it holds only as a replicated blob — never computed
// there, so not in its point LRU — is served from the blob store with
// zero engine jobs.
func TestClusterOwnerServesHeldPointBlob(t *testing.T) {
	ctx := context.Background()
	req := gridSpec()
	req.Axes = []core.Axis{core.BandwidthAxis(250)}
	want, res := standaloneResult(t, req)
	pt := res.Points[0]
	if pt.Digest != res.SpecDigest {
		t.Fatalf("a one-point spec's digest %s is not its point digest %s", res.SpecDigest, pt.Digest)
	}
	blob, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}

	mgrs, cls := newTestCluster(t, 3)
	owner := owning(t, mgrs, pt.Digest)
	if n := fileBlob(ctx, mgrs[(owner+1)%3].Cluster(), cluster.Blob{Key: pt.Digest, Kind: service.BlobPoint, Value: blob}); n != 3 {
		t.Fatalf("point blob reached %d of 3 nodes", n)
	}
	before := totalStarted(mgrs)
	got, err := cls[owner].ScenarioRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("held point served differently from standalone:\n%s\n%s", want, got)
	}
	if now := totalStarted(mgrs); now != before {
		t.Fatalf("serving a held point blob started %d engine jobs, want 0", now-before)
	}
}

// streamedResult reads a whole NDJSON scenario stream from cl and
// returns it as the batch result it splices into.
func streamedResult(t *testing.T, cl *client.Client, req service.ScenarioRequest) []byte {
	t.Helper()
	st, err := cl.ScenarioStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res := core.ScenarioResult{ScenarioHeader: st.Header()}
	for {
		pt, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		res.Points = append(res.Points, pt)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startedPerNode snapshots each member's engine job starts.
func startedPerNode(mgrs []*service.Manager) []uint64 {
	out := make([]uint64, len(mgrs))
	for i, m := range mgrs {
		out[i] = m.Engine().Stats().Started
	}
	return out
}

// TestClusterTraceModeStaysOnItsNode: a trace uploaded to one member
// belongs to that member. Trace-mode grids sent there, streamed and
// batch, run there as on a standalone node: standalone's bytes, no EXEC
// and no STORE for the upload or the runs, no point blob, and no engine
// job on any other member. Another member does not know the digest.
func TestClusterTraceModeStaysOnItsNode(t *testing.T) {
	ctx := context.Background()
	entry, _ := apps.ByName("cg", 4)
	run, err := tracer.Trace("cg", 4, tracer.DefaultConfig(), entry.App.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	tr := run.OverlapReal()

	_, standalone := newService(t, 2)
	info, err := standalone.UploadTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	streamReq := service.ScenarioRequest{Trace: info.Digest, Axes: []core.Axis{core.BandwidthAxis(125, 500, 2000)}}
	batchReq := service.ScenarioRequest{Trace: info.Digest, Axes: []core.Axis{core.BandwidthAxis(250, 1000)}, Output: "traffic"}
	var digests []string
	want := map[string][]byte{}
	for name, req := range map[string]service.ScenarioRequest{"stream": streamReq, "batch": batchReq} {
		raw, err := standalone.ScenarioRaw(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var res core.ScenarioResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		want[name] = raw
		digests = append(digests, res.SpecDigest)
	}

	mgrs, cls, net := newCountingCluster(t, 3)
	// A member that owns neither spec: a forward or a fan-out would leave it.
	i := 0
	for i < len(mgrs) && (owning(t, mgrs, digests[0]) == i || owning(t, mgrs, digests[1]) == i) {
		i++
	}
	before := startedPerNode(mgrs)
	up, err := cls[i].UploadTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if up.Digest != info.Digest {
		t.Fatalf("member digests the trace %s, standalone %s", up.Digest, info.Digest)
	}
	if got := streamedResult(t, cls[i], streamReq); !bytes.Equal(bytes.TrimSpace(want["stream"]), got) {
		t.Fatalf("streamed trace-mode grid differs from standalone:\n%s\n%s", want["stream"], got)
	}
	got, err := cls[i].ScenarioRaw(ctx, batchReq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want["batch"], got) {
		t.Fatalf("trace-mode grid differs from standalone:\n%s\n%s", want["batch"], got)
	}
	for j := range cls {
		if j == i {
			continue
		}
		if _, err := cls[j].ScenarioRaw(ctx, batchReq); err == nil || !strings.Contains(err.Error(), "unknown trace") || !strings.Contains(err.Error(), "HTTP 400") {
			t.Fatalf("member %d, without the trace, answered %v; want 400 unknown trace", j, err)
		}
	}
	// Drain flushes the member's replication queue, so any STORE it
	// queued is counted below.
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := mgrs[i].Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if sent := net.take(); sent[cluster.OpExec] != 0 || sent[cluster.OpStore] != 0 {
		t.Fatalf("upload and trace-mode runs sent %d EXECs and %d STOREs, want none", sent[cluster.OpExec], sent[cluster.OpStore])
	}
	if held := mgrs[i].Cluster().Status().KeysByKind[service.BlobPoint]; held != 0 {
		t.Fatalf("trace-mode points went to the blob store: %d held", held)
	}
	after := startedPerNode(mgrs)
	for n := range mgrs {
		if n != i && after[n] != before[n] {
			t.Fatalf("member %d started %d engine jobs for another member's trace", n, after[n]-before[n])
		}
	}
}

// TestClusterPlatformDigestTravelsInline: a platform registered on one
// member, named by its digest with a degradations block on a spec
// another member owns, runs on that owner, which has never seen the
// digest: the forward carries the platform's document. The reply is
// standalone's, one EXEC is all the request sends, the registering
// member starts no engine job, and the owner's store resolves the
// reply's platform digest.
func TestClusterPlatformDigestTravelsInline(t *testing.T) {
	ctx := context.Background()
	plat, err := network.PlatformPreset("marenostrum-4x", 8)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := plat.Digest()
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := plat.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	inline := service.ScenarioRequest{
		App: "cg", Ranks: 8,
		Platform:     &service.PlatformSpec{Inline: doc.Bytes()},
		Degradations: &faults.Spec{DerateInter: 0.5, Stragglers: 1, StragglerFactor: 3, Seed: 7},
		Axes:         []core.Axis{core.BandwidthAxis(125, 500)},
		Output:       "traffic",
	}
	want, res := standaloneResult(t, inline)
	byDigest := inline
	byDigest.Platform = &service.PlatformSpec{Digest: digest}

	mgrs, cls, net := newCountingCluster(t, 3)
	home := owning(t, mgrs, res.SpecDigest)
	i := (home + 1) % len(mgrs)
	if _, err := mgrs[i].Store().PutPlatform(plat); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrs[home].Store().GetPlatform(digest); err == nil {
		t.Fatal("the spec's owner knows the platform digest before any request")
	}
	before := mgrs[i].Engine().Stats().Started
	got, err := cls[i].ScenarioRaw(ctx, byDigest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("study by platform digest differs from standalone:\n%s\n%s", want, got)
	}
	if sent := net.take(); sent[cluster.OpExec] != 1 {
		t.Fatalf("%d EXECs, want the one forward", sent[cluster.OpExec])
	}
	if now := mgrs[i].Engine().Stats().Started; now != before {
		t.Fatalf("the registering member ran the study itself (%d engine jobs): the owner did not", now-before)
	}
	if _, err := mgrs[home].Store().GetPlatform(res.PlatformDigest); err != nil {
		t.Fatalf("owner cannot resolve the reply's platform digest: %v", err)
	}
}

// TestClusterCachedRerunsSendNoStores: on a cluster larger than K,
// cached reruns at a member outside the platform digest's replica set
// send no STORE: a resolved platform stays in the member's own store.
func TestClusterCachedRerunsSendNoStores(t *testing.T) {
	ctx := context.Background()
	req := service.ScenarioRequest{
		App: "cg", Ranks: 4,
		Platform: &service.PlatformSpec{Preset: "marenostrum-4x"},
		Output:   "traffic",
	}
	plat, err := network.PlatformPreset("marenostrum-4x", 4)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := plat.Digest()
	if err != nil {
		t.Fatal(err)
	}
	mgrs, cls, net := newCountingCluster(t, 12)
	x := -1
	for n, m := range mgrs {
		in := false
		for _, c := range m.Cluster().Owners(digest) {
			in = in || c.ID == m.Cluster().Self().ID
		}
		if !in {
			x = n
			break
		}
	}
	if x < 0 {
		t.Fatal("every member is in the platform's replica set")
	}
	if _, err := cls[x].ScenarioRaw(ctx, req); err != nil {
		t.Fatal(err)
	}
	// The fresh point replicates to its K replicas; let that settle first.
	deadline := time.Now().Add(10 * time.Second)
	for {
		held := 0
		for _, m := range mgrs {
			held += m.Cluster().Status().KeysByKind[service.BlobPoint]
		}
		if held >= cluster.DefaultK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the point reached %d of %d replicas", held, cluster.DefaultK)
		}
		time.Sleep(10 * time.Millisecond)
	}
	net.take()
	for range 50 {
		if _, err := cls[x].ScenarioRaw(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := mgrs[x].Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if n := net.take()[cluster.OpStore]; n != 0 {
		t.Fatalf("50 cached reruns sent %d STOREs, want 0", n)
	}
}
