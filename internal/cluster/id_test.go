package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"math/rand"
	"testing"
)

func randID(rng *rand.Rand) ID {
	var id ID
	rng.Read(id[:])
	return id
}

// TestXORMetricProperties checks that Distance is a genuine metric:
// identity of indiscernibles, symmetry, and the triangle inequality
// (as big-endian integers — XOR distances satisfy d(a,c) <= d(a,b) +
// d(b,c) because XOR is carry-free addition).
func TestXORMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b, c := randID(rng), randID(rng), randID(rng)
		if !Distance(a, a).IsZero() {
			t.Fatalf("d(a,a) != 0 for %s", a)
		}
		if Distance(a, b) != Distance(b, a) {
			t.Fatalf("asymmetric distance between %s and %s", a, b)
		}
		if a != b && Distance(a, b).IsZero() {
			t.Fatalf("zero distance between distinct IDs %s and %s", a, b)
		}
		dac := Distance(a, c)
		dab := Distance(a, b)
		dbc := Distance(b, c)
		// XOR consistency: d(a,c) == d(a,b) XOR d(b,c).
		if dac != Distance(dab, Distance(ID{}, dbc)) {
			t.Fatalf("XOR inconsistency for %s %s %s", a, b, c)
		}
		iac := new(big.Int).SetBytes(dac[:])
		sum := new(big.Int).Add(new(big.Int).SetBytes(dab[:]), new(big.Int).SetBytes(dbc[:]))
		if iac.Cmp(sum) > 0 {
			t.Fatalf("triangle inequality violated for %s %s %s", a, b, c)
		}
		// Closer and CompareDistance agree.
		target := randID(rng)
		if Closer(target, a, b) != (CompareDistance(target, a, b) < 0) {
			t.Fatalf("Closer and CompareDistance disagree for %s %s target %s", a, b, target)
		}
	}
}

// TestKeyIDUsesDigestPrefix: content digests map into the ID space by
// prefix, not by re-hashing — the DHT key of an artifact is literally
// the front of its content address.
func TestKeyIDUsesDigestPrefix(t *testing.T) {
	sum := sha256.Sum256([]byte("some artifact"))
	key := "sha256:" + hex.EncodeToString(sum[:])
	id := KeyID(key)
	var want ID
	copy(want[:], sum[:IDBytes])
	if id != want {
		t.Fatalf("KeyID(%q) = %s, want digest prefix %s", key, id, want)
	}
	// Non-digest keys hash; distinct keys separate.
	if KeyID("foo") == KeyID("bar") {
		t.Fatal("distinct non-digest keys collide")
	}
	if KeyID("sha256:zz") == (ID{}) {
		// malformed digests must still map somewhere, not to zero
		t.Fatal("malformed digest mapped to zero ID")
	}
}

// TestNodeIDDomainSeparation: a node named after a digest string does
// not collide with that digest's key.
func TestNodeIDDomainSeparation(t *testing.T) {
	sum := sha256.Sum256([]byte("x"))
	key := "sha256:" + hex.EncodeToString(sum[:])
	if NodeID(key) == KeyID(key) {
		t.Fatal("node ID collides with key ID of the same string")
	}
	if NodeID("a") == NodeID("b") {
		t.Fatal("distinct names collide")
	}
}

func TestIDJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	id := randID(rng)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back ID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %s -> %s", id, back)
	}
	if err := json.Unmarshal([]byte(`"zz"`), &back); err == nil {
		t.Fatal("short hex accepted")
	}
}
