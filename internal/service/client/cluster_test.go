package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestClusterTransportBatchedStore sends a batched STORE between two
// nodes over the HTTP transport — the serialization MemNetwork skips:
// every listed blob arrives with its kind and bytes, and a list over
// the item cap is refused by the receiving server's decoder.
func TestClusterTransportBatchedStore(t *testing.T) {
	ctx := context.Background()
	tr := &ClusterTransport{}
	nodes := httpPair(t, tr)

	blobs := make([]cluster.Blob, 40)
	for i := range blobs {
		kind := "point"
		if i%2 == 1 {
			kind = "trace"
		}
		blobs[i] = cluster.Blob{Key: fmt.Sprintf("sha256:%064x", i), Kind: kind, Value: bytes.Repeat([]byte{byte(i)}, i+1)}
	}
	acks, stores := nodes[0].Replicate(ctx, blobs)
	if stores != 1 {
		t.Fatalf("%d STOREs for 40 blobs to one peer, want 1", stores)
	}
	for i, b := range blobs {
		if acks[i] != 1 {
			t.Fatalf("blob %d acknowledged by %d peers, want 1", i, acks[i])
		}
		v, kind, ok := nodes[1].GetCached(b.Key)
		if !ok || kind != b.Kind || !bytes.Equal(v, b.Value) {
			t.Fatalf("blob %d arrived as (%v, %q, %d bytes), want (%q, %d bytes)", i, ok, kind, len(v), b.Kind, len(b.Value))
		}
	}

	over := make([]cluster.Blob, cluster.MaxStoreBlobs+1)
	for i := range over {
		over[i] = cluster.Blob{Key: fmt.Sprintf("k%d", i), Value: []byte{1}}
	}
	req := &cluster.Request{Op: cluster.OpStore, From: nodes[0].Self(), Blobs: over}
	if resp, err := tr.Call(ctx, nodes[1].Self().Addr, req); err == nil {
		t.Fatalf("a STORE of %d blobs was served: %+v", len(over), resp)
	}
	if _, _, ok := nodes[1].GetCached(over[0].Key); ok {
		t.Fatal("a refused STORE left a blob behind")
	}
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
