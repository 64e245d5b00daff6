package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// httpPair starts two joined nodes, each behind its own httptest server,
// that call each other over tr.
func httpPair(t *testing.T, tr *ClusterTransport) []*cluster.Node {
	t.Helper()
	ctx := context.Background()
	nodes := make([]*cluster.Node, 2)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		n, err := cluster.NewNode(cluster.Config{
			Name:      fmt.Sprintf("http-%d", i),
			Addr:      "http://" + srv.Listener.Addr().String(),
			Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Config.Handler = cluster.ServeRPC(n)
		srv.Start()
		t.Cleanup(srv.Close)
		nodes[i] = n
	}
	if err := nodes[1].Join(ctx, nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Join(ctx); err != nil {
		t.Fatal(err)
	}
	return nodes
}

// TestClusterTransportLargeValue: an EXEC reply carries its value in
// base64, a third larger than the value, and a 50 MiB reply still comes
// back whole over the HTTP transport. A reply past MaxResponseBytes
// fails with the wire-bound error, not a JSON one. Skipped under
// -short: it moves a few hundred MB.
func TestClusterTransportLargeValue(t *testing.T) {
	if testing.Short() {
		t.Skip("moves a few hundred MB")
	}
	ctx := context.Background()
	tr := &ClusterTransport{}
	nodes := httpPair(t, tr)
	value := bytes.Repeat([]byte{0xa5}, 50<<20)
	nodes[1].SetExecutor(func(context.Context, string, []byte) ([]byte, error) { return value, nil })
	got, err := nodes[0].Exec(ctx, nodes[1].Self(), "large", []byte("x"))
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("EXEC of a 50 MiB reply: %d bytes, error %v", len(got), err)
	}

	chunk := bytes.Repeat([]byte{' '}, 1<<20)
	over := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for n := 0; n <= cluster.MaxResponseBytes; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer over.Close()
	_, err = tr.Call(ctx, over.URL, &cluster.Request{Op: cluster.OpPing, From: nodes[0].Self()})
	if err == nil || !strings.Contains(err.Error(), "wire bound") {
		t.Fatalf("a reply over %d bytes: error %v, want the wire-bound error", cluster.MaxResponseBytes, err)
	}
}

// TestClusterTransportRetries: an RPC whose first three attempts meet
// two 503s and a dropped connection succeeds on the fourth within its
// RetryPolicy, and the peer's executor runs once.
func TestClusterTransportRetries(t *testing.T) {
	n, err := cluster.NewNode(cluster.Config{Name: "flaky", Addr: "http://flaky", Transport: &ClusterTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	n.SetExecutor(func(_ context.Context, _ string, payload []byte) ([]byte, error) {
		runs.Add(1)
		return append([]byte("ran "), payload...), nil
	})
	fails := []string{"503", "503", "drop"}
	srv, calls := flakyFront(t, cluster.ServeRPC(n), func(i int64) string {
		if i <= int64(len(fails)) {
			return fails[i-1]
		}
		return ""
	})
	tr := &ClusterTransport{HC: srv.Client(), Retry: fastRetry(len(fails))}
	from := cluster.Contact{ID: cluster.NodeID("caller"), Addr: "http://caller"}
	resp, err := tr.Call(context.Background(), srv.URL, &cluster.Request{Op: cluster.OpExec, From: from, Kind: "k", Value: []byte("x")})
	if err != nil {
		t.Fatalf("RPC through two 503s and a dropped connection: %v", err)
	}
	if resp.Err != "" || string(resp.Value) != "ran x" {
		t.Fatalf("RPC answered %q (error %q), want \"ran x\"", resp.Value, resp.Err)
	}
	if got := calls.Load(); got != int64(len(fails))+1 {
		t.Fatalf("%d attempts, want %d", got, len(fails)+1)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("executor ran %d times, want 1", got)
	}
}
