package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTripTiny(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestBinaryRoundTripMetadata(t *testing.T) {
	tr := New("name with spaces % and \n newline", "overlap-ideal", 3)
	tr.Append(1, Record{Kind: KindWaitAll})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Flavor != tr.Flavor || got.NumRanks != 3 {
		t.Fatalf("metadata lost: %+v", got)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC"),
		append(append([]byte{}, binaryMagic[:]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), // absurd string length
	}
	for i, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// TestDecodersBoundRankCounts: both codecs, read through ReadAny, take a
// trace of MaxRanks ranks and refuse one rank more.
func TestDecodersBoundRankCounts(t *testing.T) {
	for _, n := range []int{MaxRanks, MaxRanks + 1} {
		tr := New("bound", "base", n)
		var text, bin bytes.Buffer
		if err := Write(&text, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		for codec, doc := range map[string][]byte{"text": text.Bytes(), "binary": bin.Bytes()} {
			got, err := ReadAny(bytes.NewReader(doc))
			switch {
			case n <= MaxRanks && (err != nil || got.NumRanks != n):
				t.Errorf("%s, %d ranks: %v", codec, n, err)
			case n > MaxRanks && (err == nil || !strings.Contains(err.Error(), "exceeds")):
				t.Errorf("%s, %d ranks: err %v, want a bound", codec, n, err)
			}
		}
	}
	if _, err := ReadAny(strings.NewReader(hugeRanksText)); err == nil {
		t.Error("text header naming 4e9 ranks accepted")
	}
}

// TestReadBinaryAllocatesWhatTheInputDelivers: a rank that declares
// 795,335,253 records and delivers none fails after a bounded
// reservation instead of one sized by the declared count.
func TestReadBinaryAllocatesWhatTheInputDelivers(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadBinary(bytes.NewReader(hugeRecordsBinary)); err == nil {
		t.Fatal("truncated record stream accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(hugeRecordsBinary), grew)
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full)-1; cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBinaryAndTextAgree(t *testing.T) {
	// A trace surviving one codec must survive the other and produce the
	// same structure.
	f := func(seed int64) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		var tb, bb bytes.Buffer
		if err := Write(&tb, tr); err != nil {
			return false
		}
		if err := WriteBinary(&bb, tr); err != nil {
			return false
		}
		fromText, err := Read(&tb)
		if err != nil {
			return false
		}
		fromBin, err := ReadBinary(&bb)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(fromText, fromBin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryDensityBeatsText(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTrace(rng)
	for i := 0; i < 5; i++ {
		more := randomTrace(rng)
		for r := range more.Ranks {
			if r < len(tr.Ranks) {
				tr.Ranks[r].Records = append(tr.Ranks[r].Records, more.Ranks[r].Records...)
			}
		}
	}
	var tb, bb bytes.Buffer
	if err := Write(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, tr); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len() {
		t.Fatalf("binary (%d B) not denser than text (%d B)", bb.Len(), tb.Len())
	}
}

func TestBinaryUnknownKindRejectedOnWrite(t *testing.T) {
	tr := New("x", "y", 1)
	tr.Append(0, Record{Kind: Kind(200)})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err == nil || !strings.Contains(err.Error(), "cannot serialize") {
		t.Fatalf("unknown kind accepted: %v", err)
	}
}
