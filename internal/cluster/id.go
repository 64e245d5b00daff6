// Package cluster is the peer layer that turns a set of simd daemons
// into one simulation cluster. Nodes carry 160-bit IDs, each keeps the
// exact set of live members (one join fills it), and they speak PING /
// FIND_NODE / EXEC RPCs over a pluggable transport (an in-process
// network for tests and CI, HTTP under /v1/cluster/ in production). The
// work the service layer routes is already content-addressed — SHA-256
// scenario digests — so those digests are the keys: the XOR-closest
// member owns a key's computation. The cluster carries work and
// membership only: no node stores a value for another, and nothing
// reads a value from another node.
//
// The package is deliberately below the service layer: it knows about
// keys, members and one opaque "exec" RPC, never about scenarios. The
// service glue (forwarding) lives in internal/service; the HTTP
// client-side transport lives in internal/service/client so inter-node
// calls reuse the client's RetryPolicy.
package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// IDBytes is the width of a node/key identifier: 160 bits, a prefix of
// every SHA-256 content digest.
const IDBytes = 20

// ID is a 160-bit identifier in the shared node/key space. Nodes and
// keys are compared by XOR distance, so a key's owner is simply the
// node whose ID its digest lands closest to.
type ID [IDBytes]byte

// NodeID derives a stable node ID from a human-chosen name (the -node-id
// flag). The "node:" prefix keeps operator names out of the content-key
// space: a node named after a digest string still hashes elsewhere.
func NodeID(name string) ID {
	sum := sha256.Sum256([]byte("node:" + name))
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// KeyID maps a service-layer key into the ID space. Content digests
// ("sha256:<64 hex>") are already uniform hashes, so their first 160
// bits are used directly — the DHT key of a spec is literally a prefix
// of its content address. Anything else is hashed.
func KeyID(key string) ID {
	var id ID
	if hexPart, ok := strings.CutPrefix(key, "sha256:"); ok && len(hexPart) == 64 {
		if raw, err := hex.DecodeString(hexPart[:2*IDBytes]); err == nil {
			copy(id[:], raw)
			return id
		}
	}
	sum := sha256.Sum256([]byte(key))
	copy(id[:], sum[:IDBytes])
	return id
}

// idKey is a key KeyID maps back to id itself: digest-shaped, with id
// as its first 160 bits.
func idKey(id ID) string {
	return "sha256:" + id.String() + strings.Repeat("0", 64-2*IDBytes)
}

// IsZero reports whether the ID is the (invalid) zero value.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the ID as 40 hex digits.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// MarshalText implements encoding.TextMarshaler (IDs travel in JSON
// RPCs and status documents as hex strings).
func (id ID) MarshalText() ([]byte, error) {
	out := make([]byte, hex.EncodedLen(len(id)))
	hex.Encode(out, id[:])
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(b []byte) error {
	if hex.DecodedLen(len(b)) != IDBytes {
		return fmt.Errorf("cluster: ID %q: want %d hex digits", b, 2*IDBytes)
	}
	_, err := hex.Decode(id[:], b)
	return err
}

// Distance returns the XOR metric between two IDs. XOR is a genuine
// metric (symmetric, zero iff equal, triangle inequality holds
// bitwise), and it is unidirectional: for any target and distance there
// is exactly one ID at that distance, so nodes that know the same
// members name the same owners.
func Distance(a, b ID) ID {
	var d ID
	for i := range d {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// Closer reports whether a is strictly closer to target than b in the
// XOR metric (big-endian comparison of the distances).
func Closer(target, a, b ID) bool {
	for i := range target {
		da, db := a[i]^target[i], b[i]^target[i]
		if da != db {
			return da < db
		}
	}
	return false
}

// CompareDistance orders a and b by distance to target: -1 if a is
// closer, +1 if b is, 0 at equal distance (which means a == b).
func CompareDistance(target, a, b ID) int {
	da, db := Distance(target, a), Distance(target, b)
	return bytes.Compare(da[:], db[:])
}
