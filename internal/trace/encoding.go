package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk format is a line-oriented text encoding in the spirit of the
// Dimemas ".dim" trace files:
//
//	#DIMGO <version>
//	T <name> <flavor> <numranks>
//	R <rank>
//	c <instr>
//	s <peer> <tag> <chunk> <bytes> <msgid>     (blocking send)
//	i <peer> <tag> <chunk> <bytes> <msgid>     (non-blocking send)
//	r <peer> <tag> <chunk> <bytes> <msgid>     (blocking receive)
//	p <peer> <tag> <chunk> <bytes> <handle> <msgid>  (IRecv post)
//	w <handle>                                 (wait one)
//	W                                          (wait all)
//
// Lines beginning with '#' (other than the magic) and blank lines are
// ignored. Names and flavours are percent-escaped so they may contain
// spaces.

// textMagicPrefix starts the text format in every version; formatMagic
// is the full magic line this version writes.
const (
	textMagicPrefix = "#DIMGO "
	formatMagic     = textMagicPrefix + "1"
)

func escapeField(s string) string {
	if s == "" {
		return "%00"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '%' || c == '\n' || c == '\t' {
			fmt.Fprintf(&b, "%%%02x", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeField(s string) (string, error) {
	if s == "%00" {
		return "", nil
	}
	if !strings.Contains(s, "%") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("trace: truncated escape in %q", s)
		}
		v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
		if err != nil {
			return "", fmt.Errorf("trace: bad escape in %q: %v", s, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}

// Write serializes the trace in the text format described above.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, formatMagic)
	fmt.Fprintf(bw, "T %s %s %d\n", escapeField(t.Name), escapeField(t.Flavor), t.NumRanks)
	for r := range t.Ranks {
		fmt.Fprintf(bw, "R %d\n", r)
		for _, rec := range t.Ranks[r].Records {
			switch rec.Kind {
			case KindCompute:
				fmt.Fprintf(bw, "c %d\n", rec.Instr)
			case KindSend:
				fmt.Fprintf(bw, "s %d %d %d %d %d\n", rec.Peer, rec.Tag, rec.Chunk, rec.Bytes, rec.MsgID)
			case KindISend:
				fmt.Fprintf(bw, "i %d %d %d %d %d\n", rec.Peer, rec.Tag, rec.Chunk, rec.Bytes, rec.MsgID)
			case KindRecv:
				fmt.Fprintf(bw, "r %d %d %d %d %d\n", rec.Peer, rec.Tag, rec.Chunk, rec.Bytes, rec.MsgID)
			case KindIRecv:
				fmt.Fprintf(bw, "p %d %d %d %d %d %d\n", rec.Peer, rec.Tag, rec.Chunk, rec.Bytes, rec.Handle, rec.MsgID)
			case KindWait:
				fmt.Fprintf(bw, "w %d\n", rec.Handle)
			case KindWaitAll:
				fmt.Fprintln(bw, "W")
			default:
				return fmt.Errorf("trace: cannot serialize record kind %v", rec.Kind)
			}
		}
	}
	return bw.Flush()
}

// ReadAny parses a trace in either codec: the text format when the input
// starts with its "#DIMGO " magic, the binary format otherwise. Trace
// files and uploads both decode through it.
func ReadAny(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(textMagicPrefix)); string(magic) == textMagicPrefix {
		return Read(br)
	}
	return ReadBinary(br)
}

// Read parses a trace previously produced by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			return line, true
		}
		return "", false
	}
	line, ok := next()
	if !ok {
		return nil, fmt.Errorf("trace: empty input")
	}
	if line != formatMagic {
		return nil, fmt.Errorf("trace: line %d: bad magic %q", lineNo, line)
	}
	line, ok = next()
	if !ok || !strings.HasPrefix(line, "T ") {
		return nil, fmt.Errorf("trace: line %d: expected header, got %q", lineNo, line)
	}
	hf := strings.Fields(line)
	if len(hf) != 4 {
		return nil, fmt.Errorf("trace: line %d: malformed header %q", lineNo, line)
	}
	name, err := unescapeField(hf[1])
	if err != nil {
		return nil, err
	}
	flavor, err := unescapeField(hf[2])
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(hf[3])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("trace: line %d: bad rank count %q", lineNo, hf[3])
	}
	if n > MaxRanks {
		return nil, fmt.Errorf("trace: line %d: rank count %d exceeds %d", lineNo, n, MaxRanks)
	}
	t := New(name, flavor, n)
	cur := -1
	ints := func(fields []string, want int) ([]int64, error) {
		if len(fields)-1 != want {
			return nil, fmt.Errorf("trace: line %d: want %d fields, got %d", lineNo, want, len(fields)-1)
		}
		out := make([]int64, want)
		for i := 0; i < want; i++ {
			v, err := strconv.ParseInt(fields[i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad integer %q", lineNo, fields[i+1])
			}
			out[i] = v
		}
		return out, nil
	}
	for {
		line, ok = next()
		if !ok {
			break
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "R":
			v, err := ints(f, 1)
			if err != nil {
				return nil, err
			}
			cur = int(v[0])
			if cur < 0 || cur >= n {
				return nil, fmt.Errorf("trace: line %d: rank %d out of range", lineNo, cur)
			}
		case "c", "s", "i", "r", "p", "w", "W":
			if cur < 0 {
				return nil, fmt.Errorf("trace: line %d: record before any R line", lineNo)
			}
			var rec Record
			switch f[0] {
			case "c":
				v, err := ints(f, 1)
				if err != nil {
					return nil, err
				}
				rec = Record{Kind: KindCompute, Instr: v[0]}
			case "s", "i", "r":
				v, err := ints(f, 5)
				if err != nil {
					return nil, err
				}
				k := KindSend
				if f[0] == "i" {
					k = KindISend
				} else if f[0] == "r" {
					k = KindRecv
				}
				rec = Record{Kind: k, Peer: int(v[0]), Tag: int(v[1]), Chunk: int(v[2]), Bytes: v[3], MsgID: v[4]}
			case "p":
				v, err := ints(f, 6)
				if err != nil {
					return nil, err
				}
				rec = Record{Kind: KindIRecv, Peer: int(v[0]), Tag: int(v[1]), Chunk: int(v[2]), Bytes: v[3], Handle: int(v[4]), MsgID: v[5]}
			case "w":
				v, err := ints(f, 1)
				if err != nil {
					return nil, err
				}
				rec = Record{Kind: KindWait, Handle: int(v[0])}
			case "W":
				rec = Record{Kind: KindWaitAll}
			}
			t.Ranks[cur].Records = append(t.Ranks[cur].Records, rec)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return t, nil
}
