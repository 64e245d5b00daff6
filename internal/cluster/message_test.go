package cluster

import (
	"context"
	"strings"
	"testing"
)

// TestMaxResponseBytesFitsEveryLimit: a response with every field at its
// limit — the responder and MaxContacts contacts with MaxAddrBytes
// addresses and MaxErrBytes of error text, all of
// a character JSON escapes six bytes wide — fits MaxResponseBytes once
// its value grows to MaxValueBytes. The value is encoded at 3 bytes and
// grown by arithmetic, so the test moves no 64 MiB.
func TestMaxResponseBytesFitsEveryLimit(t *testing.T) {
	wide := func(n int) string { return strings.Repeat("<", n) }
	var id ID
	for i := range id {
		id[i] = 0xff
	}
	c := Contact{ID: id, Addr: wide(MaxAddrBytes)}
	resp := &Response{
		From: c, Draining: true,
		Value: []byte{1, 2, 3}, Err: wide(MaxErrBytes),
	}
	for range MaxContacts {
		resp.Contacts = append(resp.Contacts, c)
	}
	b, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if size := len(b) - 4 + (MaxValueBytes+2)/3*4; size > MaxResponseBytes {
		t.Fatalf("a response at every limit encodes to %d bytes, bound %d", size, MaxResponseBytes)
	}
	if _, err := DecodeResponse(b); err != nil {
		t.Fatal(err)
	}
}

// TestMaxRequestBytesFitsEveryLimit: a request with every field at its
// limit — the caller's MaxAddrBytes address, a MaxKeyBytes key and a
// MaxKindBytes kind, all of a character JSON escapes six bytes wide —
// fits MaxRequestBytes once its value grows to MaxValueBytes, grown by
// arithmetic as in TestMaxResponseBytesFitsEveryLimit.
func TestMaxRequestBytesFitsEveryLimit(t *testing.T) {
	wide := func(n int) string { return strings.Repeat("<", n) }
	var id ID
	for i := range id {
		id[i] = 0xff
	}
	req := &Request{
		Op: OpExec, From: Contact{ID: id, Addr: wide(MaxAddrBytes)}, Draining: true,
		Key: wide(MaxKeyBytes), Kind: wide(MaxKindBytes), Value: []byte{1, 2, 3},
	}
	b, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if size := len(b) - 4 + (MaxValueBytes+2)/3*4; size > MaxRequestBytes {
		t.Fatalf("a request at every limit encodes to %d bytes, bound %d", size, MaxRequestBytes)
	}
	if _, err := DecodeRequest(b); err != nil {
		t.Fatal(err)
	}
}

// TestResponseFieldsStayWithinLimits: the limits MaxResponseBytes adds up
// hold for what a node sends. No contact over MaxAddrBytes gets in:
// NewNode refuses one, and so do the request and response decoders.
// HandleRPC cuts error text to MaxErrBytes, even when a request's own
// bytes end up in it.
func TestResponseFieldsStayWithinLimits(t *testing.T) {
	net := NewMemNetwork()
	long := Contact{Addr: strings.Repeat("a", MaxAddrBytes+1)}
	if _, err := NewNode(Config{Name: "long", Addr: long.Addr, Transport: net}); err == nil {
		t.Fatalf("NewNode accepted an address of %d bytes", len(long.Addr))
	}
	if err := (&Request{Op: OpPing, From: long}).Validate(); err == nil {
		t.Fatalf("a request from an address of %d bytes validated", len(long.Addr))
	}
	for _, resp := range []*Response{{From: long}, {Contacts: []Contact{{}, long}}} {
		b, err := resp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResponse(b); err == nil {
			t.Fatalf("decoded a response naming an address of %d bytes", len(long.Addr))
		}
	}
	n, err := NewNode(Config{Name: "n", Addr: strings.Repeat("a", MaxAddrBytes), Transport: net})
	if err != nil {
		t.Fatal(err)
	}
	resp := n.HandleRPC(context.Background(), &Request{Op: Op(strings.Repeat("x", 2*MaxErrBytes))})
	if resp.Err == "" || len(resp.Err) > MaxErrBytes {
		t.Fatalf("error text of %d bytes, want 1 to %d", len(resp.Err), MaxErrBytes)
	}
}
