package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Op names one cluster RPC: two that keep the member set (ping,
// find_node), and OpExec, carrying an opaque request for the owner of a
// key to execute (the service layer uses it to run a scenario on the
// node that owns its digest).
type Op string

const (
	// OpPing is the liveness probe; its response refreshes member sets
	// and carries the peer's draining flag.
	OpPing Op = "ping"
	// OpFindNode returns up to MaxContacts of the receiver's members,
	// nearest the key first; Join asks it of every member it learns of.
	OpFindNode Op = "find_node"
	// OpExec asks the receiver — the key's owner — to execute an opaque
	// request and return the result bytes.
	OpExec Op = "exec"
)

// Wire limits. Values carry exec payloads and results; keys are digest
// strings, kinds are short labels.
const (
	// MaxValueBytes bounds Request.Value and Response.Value.
	MaxValueBytes = 64 << 20
	// MaxKeyBytes bounds Request.Key ("sha256:" + 64 hex is 71 bytes;
	// the bound leaves headroom for other key schemes).
	MaxKeyBytes = 256
	// MaxKindBytes bounds Request.Kind.
	MaxKindBytes = 64
	// MaxContacts bounds Response.Contacts.
	MaxContacts = 64
	// MaxRequestBytes bounds one encoded request: a MaxValueBytes value
	// in base64, the caller, the key and the kind — their strings at 6
	// bytes a byte, JSON's widest escape — and the envelope's framing.
	MaxRequestBytes = (MaxValueBytes+2)/3*4 + 2*IDBytes + 6*(MaxAddrBytes+MaxKeyBytes+MaxKindBytes) + 1024
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
}

// Response answers one RPC.
type Response struct {
	// From identifies the responder (its current contact info).
	From Contact `json:"from"`
	// Draining is set while the responder is leaving the cluster: it
	// refuses fresh exec work, and callers drop it from their member
	// sets.
	Draining bool `json:"draining,omitempty"`
	// Value is the exec result.
	Value []byte `json:"value,omitempty"`
	// Contacts are up to MaxContacts of the responder's members, nearest
	// the key first (find_node).
	Contacts []Contact `json:"contacts,omitempty"`
	// Err carries an application-level failure (exec errors, refusals).
	Err string `json:"error,omitempty"`
}

// validOp reports whether op is one of the three RPCs.
func validOp(op Op) bool {
	switch op {
	case OpPing, OpFindNode, OpExec:
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
	switch r.Op {
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
