package cluster

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeRequest chews on the RPC envelope decoder — the bytes every
// node accepts from the network. Properties: no panics, a nil request
// on error and a valid one on success, every accepted request within
// the wire bounds, and accept/encode/decode is a fixed point.
func FuzzDecodeRequest(f *testing.F) {
	seed := [][]byte{
		// STORE is not an RPC, and no envelope carries a blob list: all
		// of these are rejected.
		[]byte(`{"op":"store","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"},"blobs":[{"key":"sha256:a","kind":"point","value":"aGk="},{"key":"sha256:b","value":"eA=="}]}`),
		[]byte(`{"op":"store","blobs":[{"key":"k","kind":"point","value":"aGk="},{"key":"k","kind":"point","value":"aGk="}]}`),
		[]byte(`{"op":"store","blobs":[]}`),
		[]byte(`{"op":"store","blobs":[{"key":"","value":"aGk="}]}`),
		[]byte(`{"op":"store","blobs":[{"key":"k","value":""}]}`),
		[]byte(`{"op":"store","key":"k","value":"aGk=","blobs":[{"key":"k","value":"aGk="}]}`),
		[]byte(`{"op":"store","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"},"key":"sha256:abc","kind":"point","value":"aGk="}`),
		[]byte(`{"op":"exec","kind":"scenario","value":"e30=","blobs":[{"key":"k","value":"aGk="}]}`),
		[]byte(`{"op":"ping","from":{"id":"00112233445566778899aabbccddeeff00112233","addr":"n1"}}`),
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

// TestDecodeRequestRejectsRemovedOps: the envelopes of the ops the
// protocol no longer has, which FuzzDecodeRequest seeds, are refused as
// unknown ops.
func TestDecodeRequestRejectsRemovedOps(t *testing.T) {
	for _, op := range []string{"find_value", "store"} {
		req, err := DecodeRequest([]byte(`{"op":"` + op + `","key":"k"}`))
		if err == nil || req != nil || !strings.Contains(err.Error(), `unknown op "`+op+`"`) {
			t.Errorf("%s decoded to %+v, %v; want an unknown-op error", op, req, err)
		}
	}
}

// checkBounds asserts the wire limits on an accepted request.
func checkBounds(t *testing.T, req *Request) {
	t.Helper()
	if len(req.Key) > MaxKeyBytes || len(req.Kind) > MaxKindBytes || len(req.Value) > MaxValueBytes {
		t.Fatalf("accepted an oversized envelope: key %d, kind %d, value %d bytes", len(req.Key), len(req.Kind), len(req.Value))
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
