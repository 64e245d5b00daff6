package trace

import (
	"bytes"
	"testing"
)

// Fuzz targets for the two codecs: any input must either fail cleanly or
// parse into a trace that survives a round trip. `go test` exercises the
// seed corpus; `go test -fuzz=FuzzRead` explores further.

// Inputs whose declared sizes once made the decoders allocate far
// beyond what they deliver: a text header naming 4e9 ranks, and a binary
// trace of 48 ranks whose rank 0 declares 795,335,253 records and ends.
var (
	hugeRanksText     = "#DIMGO 1\nT a b 4000000000\n"
	hugeRecordsBinary = []byte{
		0x44, 0x49, 0x4d, 0x47, 0x4f, 0x42, 0x31, 0x0a, 0x04, 0x30, 0x30, 0x16,
		0x30, 0x04, 0x30, 0x30, 0x30, 0x30, 0x30, 0xd5, 0xb4, 0x9f, 0xfb, 0x02,
	}
)

func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, tinyTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("#DIMGO 1\nT a b 2\nR 0\nc 10\ns 1 0 0 8 1\nR 1\nr 0 0 0 8 1\n"))
	f.Add([]byte("#DIMGO 1\nT x y 0\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte(hugeRanksText)) // once sized a 128 GB rank table
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		// Parsed traces must survive a write/read cycle unchanged in
		// aggregate terms.
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tr2.Stats() != tr.Stats() {
			t.Fatalf("stats changed across round trip")
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, tinyTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(binaryMagic[:])
	f.Add([]byte("garbage!"))
	f.Add(hugeRecordsBinary) // once reserved 50.9 GB of records
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			// Some kinds decode but cannot re-encode only if the kind
			// byte was invalid, which ReadBinary rejects; any failure
			// here is a bug.
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tr2.Stats() != tr.Stats() {
			t.Fatalf("stats changed across round trip")
		}
	})
}
