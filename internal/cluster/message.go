package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Op names one cluster RPC: three that keep the member set and the
// replicated blobs (ping, store, find_node), and OpExec, carrying an
// opaque request for the owner of a key to execute (the service layer
// uses it to run a scenario on the node that owns its digest).
type Op string

const (
	// OpPing is the liveness probe; its response refreshes member sets
	// and carries the peer's draining flag.
	OpPing Op = "ping"
	// OpStore replicates values to one of their keys' K closest nodes:
	// a list of keyed values (Request.Blobs).
	OpStore Op = "store"
	// OpFindNode returns up to MaxContacts of the receiver's members,
	// nearest the key first; Join asks it of every member it learns of.
	OpFindNode Op = "find_node"
	// OpExec asks the receiver — the key's owner — to execute an opaque
	// request and return the result bytes.
	OpExec Op = "exec"
)

// Wire limits. Values carry exec payloads and results, and a STORE's
// blobs; keys are digest strings, kinds are short labels.
const (
	// MaxValueBytes bounds Request.Value and Response.Value, and the
	// summed values of one STORE's blob list.
	MaxValueBytes = 64 << 20
	// MaxKeyBytes bounds Request.Key ("sha256:" + 64 hex is 71 bytes;
	// the bound leaves headroom for other key schemes).
	MaxKeyBytes = 256
	// MaxKindBytes bounds Request.Kind.
	MaxKindBytes = 64
	// MaxContacts bounds Response.Contacts.
	MaxContacts = 64
	// MaxStoreBlobs bounds how many blobs one STORE lists.
	MaxStoreBlobs = 1024
	// MaxRequestBytes bounds one encoded request: MaxValueBytes of values
	// in base64, plus a full blob list's keys, kinds and JSON framing.
	MaxRequestBytes = (MaxValueBytes+2)/3*4 + MaxStoreBlobs*(MaxKeyBytes+MaxKindBytes+64) + 1024
	// MaxAddrBytes bounds a contact's address: NewNode refuses a longer
	// one, and so do the request and response decoders, which are where
	// a node learns other contacts.
	MaxAddrBytes = 256
	// MaxErrBytes bounds a response's error text; HandleRPC cuts a longer
	// one.
	MaxErrBytes = 4096
	// MaxResponseBytes bounds one encoded response: a MaxValueBytes value
	// in base64, the responder and MaxContacts contacts, and error text —
	// their strings at 6 bytes a byte, JSON's widest escape — and the
	// envelope's framing.
	MaxResponseBytes = (MaxValueBytes+2)/3*4 + (MaxContacts+1)*(2*IDBytes+6*MaxAddrBytes+32) + 6*MaxErrBytes + 1024
)

// Blob is one keyed value a STORE lists. Kind labels what the value is
// (the service stores only "point" blobs).
type Blob struct {
	Key   string `json:"key"`
	Kind  string `json:"kind,omitempty"`
	Value []byte `json:"value"`
}

// Request is one cluster RPC envelope.
type Request struct {
	// Op selects the RPC.
	Op Op `json:"op"`
	// From identifies the caller; every received request adds it to the
	// receiver's member set, or refreshes it there.
	From Contact `json:"from"`
	// Draining is set while the caller is leaving the cluster: the
	// receiver drops it from its member set instead.
	Draining bool `json:"draining,omitempty"`
	// Key is the target key of find_node.
	Key string `json:"key,omitempty"`
	// Kind labels what an executed value is (a service request kind).
	Kind string `json:"kind,omitempty"`
	// Value is the payload of exec.
	Value []byte `json:"value,omitempty"`
	// Blobs is a store's list of keyed values; a store carries nothing
	// else.
	Blobs []Blob `json:"blobs,omitempty"`
}

// Response answers one RPC.
type Response struct {
	// From identifies the responder (its current contact info).
	From Contact `json:"from"`
	// Draining is set while the responder is leaving the cluster: it
	// refuses stores of fresh keys and fresh exec work, and callers drop
	// it from their member sets.
	Draining bool `json:"draining,omitempty"`
	// Stored acknowledges a store.
	Stored bool `json:"stored,omitempty"`
	// Value is the exec result.
	Value []byte `json:"value,omitempty"`
	// Contacts are up to MaxContacts of the responder's members, nearest
	// the key first (find_node).
	Contacts []Contact `json:"contacts,omitempty"`
	// Err carries an application-level failure (exec errors, refusals).
	Err string `json:"error,omitempty"`
}

// validOp reports whether op is one of the four RPCs.
func validOp(op Op) bool {
	switch op {
	case OpPing, OpStore, OpFindNode, OpExec:
		return true
	}
	return false
}

// DecodeRequest parses and validates one RPC envelope from the wire.
// Decoding is strict — unknown fields, trailing data, oversized keys or
// values, and malformed ops are all errors — because every node accepts
// these bytes from the network; the fuzz target in fuzz_test.go chews
// on exactly this entry point.
func DecodeRequest(data []byte) (*Request, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("cluster: request of %d bytes exceeds wire bound", len(data))
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("cluster: decode request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("cluster: trailing data after request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks an envelope's shape against the wire limits and each
// op's required fields.
func (r *Request) Validate() error {
	if !validOp(r.Op) {
		return fmt.Errorf("cluster: unknown op %q", r.Op)
	}
	if len(r.From.Addr) > MaxAddrBytes {
		return fmt.Errorf("cluster: caller address of %d bytes exceeds %d", len(r.From.Addr), MaxAddrBytes)
	}
	if len(r.Key) > MaxKeyBytes {
		return fmt.Errorf("cluster: key of %d bytes exceeds %d", len(r.Key), MaxKeyBytes)
	}
	if len(r.Kind) > MaxKindBytes {
		return fmt.Errorf("cluster: kind of %d bytes exceeds %d", len(r.Kind), MaxKindBytes)
	}
	if len(r.Value) > MaxValueBytes {
		return fmt.Errorf("cluster: value of %d bytes exceeds %d", len(r.Value), MaxValueBytes)
	}
	if r.Blobs != nil && r.Op != OpStore {
		return fmt.Errorf("cluster: %s carries no blob list", r.Op)
	}
	switch r.Op {
	case OpStore:
		return r.validateBlobs()
	case OpFindNode:
		if r.Key == "" {
			return fmt.Errorf("cluster: find_node needs a key")
		}
	case OpExec:
		if r.Kind == "" || len(r.Value) == 0 {
			return fmt.Errorf("cluster: exec needs kind and value")
		}
	}
	return nil
}

// validateBlobs checks a STORE's blob list: each blob needs a key and a
// value within the key and kind bounds, at most MaxStoreBlobs of them,
// and at most MaxValueBytes of values in all.
func (r *Request) validateBlobs() error {
	if r.Key != "" || r.Kind != "" || len(r.Value) > 0 {
		return fmt.Errorf("cluster: store carries only a blob list")
	}
	if len(r.Blobs) == 0 || len(r.Blobs) > MaxStoreBlobs {
		return fmt.Errorf("cluster: store lists %d blobs, want 1 to %d", len(r.Blobs), MaxStoreBlobs)
	}
	total := 0
	for i, b := range r.Blobs {
		switch {
		case b.Key == "" || len(b.Value) == 0:
			return fmt.Errorf("cluster: store blob %d needs key and value", i)
		case len(b.Key) > MaxKeyBytes:
			return fmt.Errorf("cluster: store blob %d: key of %d bytes exceeds %d", i, len(b.Key), MaxKeyBytes)
		case len(b.Kind) > MaxKindBytes:
			return fmt.Errorf("cluster: store blob %d: kind of %d bytes exceeds %d", i, len(b.Kind), MaxKindBytes)
		}
		total += len(b.Value)
		if total > MaxValueBytes {
			return fmt.Errorf("cluster: store blobs exceed %d value bytes", MaxValueBytes)
		}
	}
	return nil
}

// Encode serializes the envelope for the wire.
func (r *Request) Encode() ([]byte, error) { return json.Marshal(r) }

// DecodeResponse parses one RPC response with the same strictness as
// DecodeRequest.
func DecodeResponse(data []byte) (*Response, error) {
	if len(data) > MaxResponseBytes {
		return nil, fmt.Errorf("cluster: response of %d bytes exceeds wire bound", len(data))
	}
	var resp Response
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("cluster: decode response: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("cluster: trailing data after response")
	}
	if len(resp.Contacts) > MaxContacts {
		return nil, fmt.Errorf("cluster: response carries %d contacts, limit %d", len(resp.Contacts), MaxContacts)
	}
	if len(resp.From.Addr) > MaxAddrBytes {
		return nil, fmt.Errorf("cluster: responder address of %d bytes exceeds %d", len(resp.From.Addr), MaxAddrBytes)
	}
	for _, c := range resp.Contacts {
		if len(c.Addr) > MaxAddrBytes {
			return nil, fmt.Errorf("cluster: contact address of %d bytes exceeds %d", len(c.Addr), MaxAddrBytes)
		}
	}
	if len(resp.Value) > MaxValueBytes {
		return nil, fmt.Errorf("cluster: response value of %d bytes exceeds %d", len(resp.Value), MaxValueBytes)
	}
	return &resp, nil
}

// Encode serializes the response for the wire.
func (r *Response) Encode() ([]byte, error) { return json.Marshal(r) }
