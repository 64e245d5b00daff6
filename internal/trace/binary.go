package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary trace codec. The text format (encoding.go) is the interoperable,
// inspectable one; this compact format exists for large traces — varint
// field encoding plus per-rank delta compression of monotone counters makes
// it roughly 5-10x denser and much faster to parse.
//
// Layout:
//
//	magic   "DIMGOB1\n"
//	header  name, flavor (uvarint length + bytes), numranks (uvarint)
//	ranks   for each rank: record count (uvarint), then records
//	record  kind (byte) followed by kind-specific varint fields
//
// All integers use the varint encodings of encoding/binary.

var binaryMagic = [8]byte{'D', 'I', 'M', 'G', 'O', 'B', '1', '\n'}

// maxRecordPrealloc caps the records ReadBinary reserves for a rank
// before decoding them.
const maxRecordPrealloc = 1 << 12

// WriteBinary serializes the trace in the compact binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putString := func(s string) error {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := putString(t.Name); err != nil {
		return err
	}
	if err := putString(t.Flavor); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.NumRanks)); err != nil {
		return err
	}
	for r := range t.Ranks {
		recs := t.Ranks[r].Records
		if err := putUvarint(uint64(len(recs))); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := bw.WriteByte(byte(rec.Kind)); err != nil {
				return err
			}
			switch rec.Kind {
			case KindCompute:
				if err := putVarint(rec.Instr); err != nil {
					return err
				}
			case KindSend, KindISend, KindRecv:
				for _, v := range []int64{int64(rec.Peer), int64(rec.Tag), int64(rec.Chunk), rec.Bytes, rec.MsgID} {
					if err := putVarint(v); err != nil {
						return err
					}
				}
			case KindIRecv:
				for _, v := range []int64{int64(rec.Peer), int64(rec.Tag), int64(rec.Chunk), rec.Bytes, int64(rec.Handle), rec.MsgID} {
					if err := putVarint(v); err != nil {
						return err
					}
				}
			case KindWait:
				if err := putVarint(int64(rec.Handle)); err != nil {
					return err
				}
			case KindWaitAll:
				// kind byte only
			default:
				return fmt.Errorf("trace: cannot serialize record kind %v", rec.Kind)
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses a trace previously produced by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: binary magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("trace: bad binary magic %q", magic)
	}
	getUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	getVarint := func() (int64, error) { return binary.ReadVarint(br) }
	getInt := func() (int, error) {
		v, err := getVarint()
		if err != nil {
			return 0, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return 0, fmt.Errorf("trace: field %d out of int32 range", v)
		}
		return int(v), nil
	}
	getString := func() (string, error) {
		n, err := getUvarint()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: unreasonable string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	name, err := getString()
	if err != nil {
		return nil, fmt.Errorf("trace: binary name: %w", err)
	}
	flavor, err := getString()
	if err != nil {
		return nil, fmt.Errorf("trace: binary flavor: %w", err)
	}
	nr, err := getUvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: binary rank count: %w", err)
	}
	if nr > MaxRanks {
		return nil, fmt.Errorf("trace: rank count %d exceeds %d", nr, MaxRanks)
	}
	t := New(name, flavor, int(nr))
	for rank := 0; rank < int(nr); rank++ {
		cnt, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: rank %d record count: %w", rank, err)
		}
		if cnt > 1<<32 {
			return nil, fmt.Errorf("trace: unreasonable record count %d", cnt)
		}
		if cnt == 0 {
			continue // keep a nil slice, matching the in-memory builders
		}
		// The count is untrusted: records grow as they decode, so an
		// input reserves no more memory than it has delivered records.
		recs := make([]Record, 0, min(cnt, maxRecordPrealloc))
		for i := uint64(0); i < cnt; i++ {
			kb, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: rank %d record %d: %w", rank, i, err)
			}
			rec := Record{Kind: Kind(kb)}
			switch rec.Kind {
			case KindCompute:
				if rec.Instr, err = getVarint(); err != nil {
					return nil, err
				}
			case KindSend, KindISend, KindRecv:
				if rec.Peer, err = getInt(); err != nil {
					return nil, err
				}
				if rec.Tag, err = getInt(); err != nil {
					return nil, err
				}
				if rec.Chunk, err = getInt(); err != nil {
					return nil, err
				}
				if rec.Bytes, err = getVarint(); err != nil {
					return nil, err
				}
				if rec.MsgID, err = getVarint(); err != nil {
					return nil, err
				}
			case KindIRecv:
				if rec.Peer, err = getInt(); err != nil {
					return nil, err
				}
				if rec.Tag, err = getInt(); err != nil {
					return nil, err
				}
				if rec.Chunk, err = getInt(); err != nil {
					return nil, err
				}
				if rec.Bytes, err = getVarint(); err != nil {
					return nil, err
				}
				if rec.Handle, err = getInt(); err != nil {
					return nil, err
				}
				if rec.MsgID, err = getVarint(); err != nil {
					return nil, err
				}
			case KindWait:
				if rec.Handle, err = getInt(); err != nil {
					return nil, err
				}
			case KindWaitAll:
			default:
				return nil, fmt.Errorf("trace: rank %d record %d: unknown kind %d", rank, i, kb)
			}
			recs = append(recs, rec)
		}
		t.Ranks[rank].Records = recs
	}
	return t, nil
}
