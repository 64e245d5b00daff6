package network

import (
	"bytes"
	"testing"

	"repro/internal/faults"
)

// FuzzReadAnyPlatform: any byte blob handed to the platform reader —
// both the flat-config and hierarchical forms, with or without a
// degradations block — must either fail cleanly or parse into a
// platform whose digest is stable across a write/read round trip.
// `go test` exercises the seed corpus; `go test -fuzz=FuzzReadAnyPlatform`
// explores further.
func FuzzReadAnyPlatform(f *testing.F) {
	f.Add([]byte(flatCG8))
	var hier bytes.Buffer
	if err := Testbed(8).WithNodes(2).WriteJSON(&hier); err != nil {
		f.Fatal(err)
	}
	f.Add(hier.Bytes())
	var degraded bytes.Buffer
	plat := Testbed(8).WithNodes(2).WithDegradations(faults.Spec{
		DerateInter: 0.5, JitterFrac: 0.2, Stragglers: 1, StragglerFactor: 2, Seed: 7,
	})
	if err := plat.WriteJSON(&degraded); err != nil {
		f.Fatal(err)
	}
	f.Add(degraded.Bytes())
	f.Add([]byte(`{"nodes": 2}`))
	f.Add([]byte(`{"degradations": {"derate_inter": 2}}`))
	f.Add([]byte(`{"mapping": [0,1,1,0]}`))
	f.Add([]byte("garbage"))
	f.Add([]byte("{}"))
	// Counts that once sized a 32 GB node table and 128 GB of bus
	// calendars.
	f.Add([]byte(`{"processors":4000000000,"latency_sec":0,"bandwidth_mbps":250,"mips":2300,"relative_speed":1}`))
	f.Add([]byte(`{"processors":4,"latency_sec":0,"bandwidth_mbps":250,"buses":4000000000,"mips":2300,"relative_speed":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadAnyPlatform(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		// Whatever parsed must digest deterministically and survive a
		// round trip with its digest — including the canonicalized
		// degradations block — intact.
		d1, err := p.Digest()
		if err != nil {
			t.Fatalf("parsed platform does not digest: %v", err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		p2, err := ReadAnyPlatform(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, buf.Bytes())
		}
		d2, err := p2.Digest()
		if err != nil {
			t.Fatalf("round-tripped platform does not digest: %v", err)
		}
		if d1 != d2 {
			t.Fatalf("digest changed across round trip: %s vs %s", d1, d2)
		}
	})
}
