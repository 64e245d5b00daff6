package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
)

// TestClusterTransportBatchedStore sends a batched STORE between two
// nodes over the HTTP transport — the serialization MemNetwork skips:
// every listed blob arrives with its kind and bytes, and a list over
// the item cap is refused by the receiving server's decoder.
func TestClusterTransportBatchedStore(t *testing.T) {
	ctx := context.Background()
	tr := &ClusterTransport{}
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
	if nodes[1].Has(over[0].Key) {
		t.Fatal("a refused STORE left a blob behind")
	}
}
