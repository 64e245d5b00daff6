package cluster

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeRequest chews on the RPC envelope decoder — the bytes every
// node accepts from the network. Properties: no panics, a nil request
// on error and a valid one on success, every accepted request within
// the wire bounds (a STORE carries exactly a blob list), and
// accept/encode/decode is a fixed point.
func FuzzDecodeRequest(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"op":"store","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"},"blobs":[{"key":"sha256:a","kind":"point","value":"aGk="},{"key":"sha256:b","value":"eA=="}]}`),
		[]byte(`{"op":"store","blobs":[{"key":"k","kind":"point","value":"aGk="},{"key":"k","kind":"point","value":"aGk="}]}`),
		[]byte(`{"op":"store","blobs":[]}`),
		[]byte(`{"op":"store","blobs":[{"key":"","value":"aGk="}]}`),
		[]byte(`{"op":"store","blobs":[{"key":"k","value":""}]}`),
		[]byte(`{"op":"store","key":"k","value":"aGk=","blobs":[{"key":"k","value":"aGk="}]}`),
		[]byte(`{"op":"exec","kind":"scenario","value":"e30=","blobs":[{"key":"k","value":"aGk="}]}`),
		[]byte(`{"op":"ping","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"}}`),
		// A single-key STORE, without a blob list, is rejected.
		[]byte(`{"op":"store","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"},"key":"sha256:abc","kind":"point","value":"aGk="}`),
		[]byte(`{"op":"find_node","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"},"key":"sha256:abc"}`),
		// FIND_VALUE is not an RPC: rejected as an unknown op.
		[]byte(`{"op":"find_value","key":"k","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"}}`),
		[]byte(`{"op":"exec","kind":"scenario","value":"e30=","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"}}`),
		[]byte(`{"op":"bogus"}`),
		[]byte(`{"op":"ping","extra":1}`),
		[]byte(`{"op":"ping"}{"op":"ping"}`),
		[]byte(`{}`),
		[]byte(``),
		[]byte(`null`),
		[]byte(`[1,2,3]`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if req == nil {
			t.Fatal("nil request without error")
		}
		if !validOp(req.Op) {
			t.Fatalf("decoder passed invalid op %q", req.Op)
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails validation: %v", err)
		}
		checkBounds(t, req)
		// Round trip: encode and decode again, must be identical.
		enc, err := req.Encode()
		if err != nil {
			t.Fatalf("encode accepted request: %v", err)
		}
		back, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("re-decode encoded request: %v", err)
		}
		a, _ := json.Marshal(req)
		b, _ := json.Marshal(back)
		if string(a) != string(b) {
			t.Fatalf("round trip drifted: %s vs %s", a, b)
		}
	})
}

// TestDecodeRequestRejectsFindValue: the FIND_VALUE envelope FuzzDecodeRequest
// seeds is refused as an unknown op.
func TestDecodeRequestRejectsFindValue(t *testing.T) {
	req, err := DecodeRequest([]byte(`{"op":"find_value","key":"k"}`))
	if err == nil || req != nil || !strings.Contains(err.Error(), `unknown op "find_value"`) {
		t.Fatalf("find_value decoded to %+v, %v; want an unknown-op error", req, err)
	}
}

// checkBounds asserts the wire limits on an accepted request, the
// blob list's included.
func checkBounds(t *testing.T, req *Request) {
	t.Helper()
	if len(req.Key) > MaxKeyBytes || len(req.Kind) > MaxKindBytes || len(req.Value) > MaxValueBytes {
		t.Fatalf("accepted an oversized envelope: key %d, kind %d, value %d bytes", len(req.Key), len(req.Kind), len(req.Value))
	}
	switch {
	case req.Op == OpStore && req.Blobs == nil:
		t.Fatal("accepted a store without a blob list")
	case req.Op != OpStore && req.Blobs != nil:
		t.Fatalf("accepted a blob list on %s", req.Op)
	case req.Blobs == nil:
		return
	}
	if req.Key != "" || len(req.Value) > 0 {
		t.Fatal("accepted a store with both a key and a blob list")
	}
	if len(req.Blobs) == 0 || len(req.Blobs) > MaxStoreBlobs {
		t.Fatalf("accepted a store listing %d blobs", len(req.Blobs))
	}
	total := 0
	for i, b := range req.Blobs {
		if b.Key == "" || len(b.Value) == 0 {
			t.Fatalf("accepted blob %d without key or value", i)
		}
		if len(b.Key) > MaxKeyBytes || len(b.Kind) > MaxKindBytes {
			t.Fatalf("accepted blob %d with key %d, kind %d bytes", i, len(b.Key), len(b.Kind))
		}
		total += len(b.Value)
	}
	if total > MaxValueBytes {
		t.Fatalf("accepted a store of %d value bytes", total)
	}
}

// TestValidateStoreBlobBounds pins the blob-list limits the fuzz target
// asserts: the item cap, the summed-value cap, the per-blob checks, and
// that a STORE carries a blob list and nothing else.
func TestValidateStoreBlobBounds(t *testing.T) {
	big := make([]byte, MaxValueBytes/2+1)
	blob := func(key string, size int) Blob { return Blob{Key: key, Kind: "point", Value: big[:size]} }
	many := make([]Blob, MaxStoreBlobs+1)
	for i := range many {
		many[i] = blob("k", 1)
	}
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"one blob", Request{Op: OpStore, Blobs: []Blob{blob("k", 1)}}, true},
		{"item cap", Request{Op: OpStore, Blobs: many[:MaxStoreBlobs]}, true},
		{"over the item cap", Request{Op: OpStore, Blobs: many}, false},
		{"value cap", Request{Op: OpStore, Blobs: []Blob{blob("a", MaxValueBytes/2), blob("b", MaxValueBytes/2)}}, true},
		{"over the value cap", Request{Op: OpStore, Blobs: []Blob{blob("a", MaxValueBytes/2), blob("b", MaxValueBytes/2+1)}}, false},
		{"empty list", Request{Op: OpStore, Blobs: []Blob{}}, false},
		{"empty key", Request{Op: OpStore, Blobs: []Blob{blob("", 1)}}, false},
		{"empty value", Request{Op: OpStore, Blobs: []Blob{blob("k", 0)}}, false},
		{"long key", Request{Op: OpStore, Blobs: []Blob{blob(string(make([]byte, MaxKeyBytes+1)), 1)}}, false},
		{"long kind", Request{Op: OpStore, Blobs: []Blob{{Key: "k", Kind: string(make([]byte, MaxKindBytes+1)), Value: []byte{1}}}}, false},
		{"key and list", Request{Op: OpStore, Key: "k", Value: []byte{1}, Blobs: []Blob{blob("k", 1)}}, false},
		{"single form", Request{Op: OpStore, Key: "k", Kind: "point", Value: []byte{1}}, false},
		{"no list", Request{Op: OpStore}, false},
		{"list on exec", Request{Op: OpExec, Kind: "x", Value: []byte{1}, Blobs: []Blob{blob("k", 1)}}, false},
	}
	for _, c := range cases {
		if err := c.req.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// FuzzDecodeResponse covers the response decoder the HTTP transport's
// client half trusts.
func FuzzDecodeResponse(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"}}`),
		[]byte(`{"from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"},"value":"aGk="}`),
		[]byte(`{"from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"},"contacts":[{"id":"ffeeddccbbaa99887766554433221100ffeeddcc","addr":"n2"}]}`),
		[]byte(`{"error":"draining","draining":true,"from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"}}`),
		[]byte(`{"unknown":true}`),
		[]byte(``),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			if resp != nil {
				t.Fatal("error with non-nil response")
			}
			return
		}
		if resp == nil {
			t.Fatal("nil response without error")
		}
		if len(resp.Contacts) > MaxContacts {
			t.Fatalf("decoder passed %d contacts", len(resp.Contacts))
		}
	})
}
