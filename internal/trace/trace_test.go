package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// tinyTrace builds a well-formed two-rank trace: rank 0 computes and sends,
// rank 1 posts an irecv, computes, waits, and computes again.
func tinyTrace() *Trace {
	t := New("unit", "base", 2)
	t.Append(0, Record{Kind: KindCompute, Instr: 1000})
	t.Append(0, Record{Kind: KindSend, Peer: 1, Tag: 7, Bytes: 4096, MsgID: 1})
	t.Append(1, Record{Kind: KindIRecv, Peer: 0, Tag: 7, Bytes: 4096, Handle: 1, MsgID: 1})
	t.Append(1, Record{Kind: KindCompute, Instr: 500})
	t.Append(1, Record{Kind: KindWait, Handle: 1})
	t.Append(1, Record{Kind: KindCompute, Instr: 250})
	return t
}

func TestNewInitializesRanks(t *testing.T) {
	tr := New("n", "f", 4)
	if tr.NumRanks != 4 || len(tr.Ranks) != 4 {
		t.Fatalf("got NumRanks=%d len=%d, want 4/4", tr.NumRanks, len(tr.Ranks))
	}
	for i, r := range tr.Ranks {
		if r.Rank != i {
			t.Errorf("rank stream %d labelled %d", i, r.Rank)
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejectsBadPeer(t *testing.T) {
	tr := tinyTrace()
	tr.Append(0, Record{Kind: KindSend, Peer: 9, Tag: 0, Bytes: 1})
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

func TestValidateRejectsSelfMessage(t *testing.T) {
	tr := New("n", "f", 2)
	tr.Append(0, Record{Kind: KindSend, Peer: 0, Bytes: 1})
	if err := tr.Validate(); err == nil {
		t.Fatal("self message accepted")
	}
}

func TestValidateRejectsNegativeBurst(t *testing.T) {
	tr := New("n", "f", 1)
	tr.Append(0, Record{Kind: KindCompute, Instr: -5})
	if err := tr.Validate(); err == nil {
		t.Fatal("negative burst accepted")
	}
}

func TestValidateRejectsWaitWithoutPost(t *testing.T) {
	tr := New("n", "f", 1)
	tr.Append(0, Record{Kind: KindWait, Handle: 3})
	if err := tr.Validate(); err == nil {
		t.Fatal("wait on unknown handle accepted")
	}
}

func TestValidateRejectsDoubleWait(t *testing.T) {
	tr := New("n", "f", 2)
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 8})
	tr.Append(1, Record{Kind: KindIRecv, Peer: 0, Bytes: 8, Handle: 1})
	tr.Append(1, Record{Kind: KindWait, Handle: 1})
	tr.Append(1, Record{Kind: KindWait, Handle: 1})
	if err := tr.Validate(); err == nil {
		t.Fatal("double wait accepted")
	}
}

func TestValidateRejectsRepostedOutstandingHandle(t *testing.T) {
	tr := New("n", "f", 2)
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 8})
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 8})
	tr.Append(1, Record{Kind: KindIRecv, Peer: 0, Bytes: 8, Handle: 1})
	tr.Append(1, Record{Kind: KindIRecv, Peer: 0, Bytes: 8, Handle: 1})
	if err := tr.Validate(); err == nil {
		t.Fatal("reposted outstanding handle accepted")
	}
}

func TestValidateRejectsUnbalancedFlows(t *testing.T) {
	tr := New("n", "f", 2)
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 100})
	// Rank 1 never receives it.
	if err := tr.Validate(); err == nil {
		t.Fatal("unbalanced flow accepted")
	}
	tr2 := New("n", "f", 2)
	tr2.Append(1, Record{Kind: KindRecv, Peer: 0, Bytes: 100})
	if err := tr2.Validate(); err == nil {
		t.Fatal("receive without send accepted")
	}
}

func TestWaitAllClearsOutstandingHandles(t *testing.T) {
	tr := New("n", "f", 2)
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 8})
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 8})
	tr.Append(1, Record{Kind: KindIRecv, Peer: 0, Bytes: 8, Handle: 1})
	tr.Append(1, Record{Kind: KindIRecv, Peer: 0, Bytes: 8, Handle: 2})
	tr.Append(1, Record{Kind: KindWaitAll})
	tr.Append(1, Record{Kind: KindIRecv, Peer: 0, Bytes: 8, Handle: 1})
	tr.Append(1, Record{Kind: KindWait, Handle: 1})
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 8})
	if err := tr.Validate(); err != nil {
		t.Fatalf("waitall did not clear handles: %v", err)
	}
}

func TestStats(t *testing.T) {
	tr := tinyTrace()
	s := tr.Stats()
	if s.Records != 6 {
		t.Errorf("Records=%d, want 6", s.Records)
	}
	if s.ComputeInstr != 1750 {
		t.Errorf("ComputeInstr=%d, want 1750", s.ComputeInstr)
	}
	if s.Messages != 1 || s.BytesSent != 4096 {
		t.Errorf("Messages=%d BytesSent=%d, want 1/4096", s.Messages, s.BytesSent)
	}
	if s.IRecvs != 1 || s.Waits != 1 {
		t.Errorf("IRecvs=%d Waits=%d, want 1/1", s.IRecvs, s.Waits)
	}
}

func TestTotalInstructions(t *testing.T) {
	tr := tinyTrace()
	if got := tr.TotalInstructions(0); got != 1000 {
		t.Errorf("rank 0 instr=%d, want 1000", got)
	}
	if got := tr.TotalInstructions(1); got != 750 {
		t.Errorf("rank 1 instr=%d, want 750", got)
	}
}

func TestPairVolumes(t *testing.T) {
	tr := New("n", "f", 3)
	tr.Append(0, Record{Kind: KindSend, Peer: 1, Bytes: 10})
	tr.Append(0, Record{Kind: KindISend, Peer: 1, Bytes: 5})
	tr.Append(2, Record{Kind: KindSend, Peer: 0, Bytes: 7})
	got := tr.PairVolumes()
	want := []PairVolume{{Src: 0, Dst: 1, Bytes: 15}, {Src: 2, Dst: 0, Bytes: 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PairVolumes=%v, want %v", got, want)
	}
}

func TestRoundTripTiny(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestRoundTripEscapedNames(t *testing.T) {
	tr := New("name with spaces %", "", 1)
	tr.Append(0, Record{Kind: KindCompute, Instr: 1})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Name != tr.Name || got.Flavor != tr.Flavor {
		t.Fatalf("metadata round trip: got %q/%q want %q/%q", got.Name, got.Flavor, tr.Name, tr.Flavor)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"#DIMGO 2\nT a b 1\n",
		"#DIMGO 1\nT a b notanumber\n",
		"#DIMGO 1\nT a b 1\nc 5\n", // record before R line
		"#DIMGO 1\nT a b 1\nR 5\n", // rank out of range
		"#DIMGO 1\nT a b 1\nR 0\nz 1\n",
		"#DIMGO 1\nT a b 1\nR 0\nc\n",
		"#DIMGO 1\nT a b 1\nR 0\ns 1 2\n",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted: %q", i, in)
		}
	}
}

func TestReadIgnoresCommentsAndBlankLines(t *testing.T) {
	in := "#DIMGO 1\n\nT app base 1\n# a comment\nR 0\n\nc 10\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(tr.Ranks[0].Records) != 1 || tr.Ranks[0].Records[0].Instr != 10 {
		t.Fatalf("unexpected parse result: %+v", tr.Ranks[0].Records)
	}
}

// randomTrace builds a structurally valid random trace for property tests:
// every send on rank a is paired with an irecv+wait or blocking recv on a
// fixed partner, keeping flows balanced.
func randomTrace(rng *rand.Rand) *Trace {
	n := 2 + rng.Intn(5)
	tr := New("prop", "base", n)
	handle := make([]int, n)
	nmsg := rng.Intn(40)
	var msgid int64
	for i := 0; i < nmsg; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		size := int64(rng.Intn(1 << 16))
		tag := rng.Intn(8)
		chunk := rng.Intn(4)
		msgid++
		if rng.Intn(3) == 0 {
			tr.Append(src, Record{Kind: KindISend, Peer: dst, Tag: tag, Chunk: chunk, Bytes: size, MsgID: msgid})
		} else {
			tr.Append(src, Record{Kind: KindSend, Peer: dst, Tag: tag, Chunk: chunk, Bytes: size, MsgID: msgid})
		}
		tr.Append(src, Record{Kind: KindCompute, Instr: int64(rng.Intn(10000))})
		if rng.Intn(2) == 0 {
			tr.Append(dst, Record{Kind: KindRecv, Peer: src, Tag: tag, Chunk: chunk, Bytes: size, MsgID: msgid})
		} else {
			handle[dst]++
			h := handle[dst]
			tr.Append(dst, Record{Kind: KindIRecv, Peer: src, Tag: tag, Chunk: chunk, Bytes: size, Handle: h, MsgID: msgid})
			tr.Append(dst, Record{Kind: KindCompute, Instr: int64(rng.Intn(1000))})
			tr.Append(dst, Record{Kind: KindWait, Handle: h})
		}
	}
	return tr
}

func TestPropertyRandomTracesValidate(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTripPreservesTrace(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStatsMatchManualCount(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		s := tr.Stats()
		var records, msgs int
		var bytesSent, instr int64
		for r := range tr.Ranks {
			records += len(tr.Ranks[r].Records)
			for _, rec := range tr.Ranks[r].Records {
				switch rec.Kind {
				case KindSend, KindISend:
					msgs++
					bytesSent += rec.Bytes
				case KindCompute:
					instr += rec.Instr
				}
			}
		}
		return s.Records == records && s.Messages == msgs && s.BytesSent == bytesSent && s.ComputeInstr == instr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindCompute: "compute", KindSend: "send", KindISend: "isend",
		KindRecv: "recv", KindIRecv: "irecv", KindWait: "wait", KindWaitAll: "waitall",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String()=%q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind string: %q", Kind(99).String())
	}
}
