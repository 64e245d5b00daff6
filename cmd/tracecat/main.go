// Command tracecat inspects trace files produced by the framework (both
// the text .dim dialect and the compact binary format): it validates,
// summarizes, converts between codecs, and optionally replays a trace on a
// platform configuration.
//
// Examples:
//
//	overlapsim -app cg -ranks 4 -dump-traces /tmp/cg
//	tracecat /tmp/cg/cg-base.dim
//	tracecat -digest /tmp/cg/cg-base.dim
//	tracecat -convert binary -o /tmp/cg.bin /tmp/cg/cg-base.dim
//	tracecat -replay -platform cluster.json /tmp/cg.bin
//	tracecat -head 20 /tmp/cg/cg-overlap-real.dim
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	convert := flag.String("convert", "", "rewrite as 'text' or 'binary' to -o")
	digest := flag.Bool("digest", false, "print only the content digest (SHA-256 of the binary encoding) and exit")
	out := flag.String("o", "", "output path for -convert")
	head := flag.Int("head", 0, "print the first N records of every rank")
	replay := flag.Bool("replay", false, "replay the trace and print timings")
	platFile := flag.String("platform", "", "platform JSON for -replay, flat or hierarchical schema (default: testbed sized to the trace)")
	netFile := flag.String("net", "", "deprecated alias for -platform")
	dumpPlat := flag.Bool("dump-platform", false, "print the replay platform as JSON and exit")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecat [flags] <trace-file>")
		os.Exit(2)
	}
	tr, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecat: %v\n", err)
		os.Exit(1)
	}

	if *digest {
		// Digest before validation: the digest addresses the bytes, and
		// scripts pipe this straight into simd's trace store.
		d, err := trace.Digest(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: digest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(d)
		return
	}

	if err := tr.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tracecat: trace INVALID: %v\n", err)
		os.Exit(1)
	}
	s := tr.Stats()
	fmt.Printf("trace %q flavor %q: %d ranks, %d records\n", tr.Name, tr.Flavor, tr.NumRanks, s.Records)
	fmt.Printf("  compute: %d instructions\n", s.ComputeInstr)
	fmt.Printf("  messages: %d (%d bytes), max chunk index %d\n", s.Messages, s.BytesSent, s.MaxChunkIndex)
	fmt.Printf("  recvs: %d blocking, %d irecv, %d wait, %d waitall\n", s.Recvs, s.IRecvs, s.Waits, s.WaitAlls)
	fmt.Println("  validation: OK")

	if *head > 0 {
		for r := range tr.Ranks {
			fmt.Printf("rank %d:\n", r)
			recs := tr.Ranks[r].Records
			n := *head
			if n > len(recs) {
				n = len(recs)
			}
			for i := 0; i < n; i++ {
				rec := recs[i]
				switch rec.Kind {
				case trace.KindCompute:
					fmt.Printf("  %4d compute %d\n", i, rec.Instr)
				case trace.KindWait:
					fmt.Printf("  %4d wait h=%d\n", i, rec.Handle)
				case trace.KindWaitAll:
					fmt.Printf("  %4d waitall\n", i)
				case trace.KindIRecv:
					fmt.Printf("  %4d %s peer=%d tag=%d chunk=%d bytes=%d h=%d\n",
						i, rec.Kind, rec.Peer, rec.Tag, rec.Chunk, rec.Bytes, rec.Handle)
				default:
					fmt.Printf("  %4d %s peer=%d tag=%d chunk=%d bytes=%d\n",
						i, rec.Kind, rec.Peer, rec.Tag, rec.Chunk, rec.Bytes)
				}
			}
			if n < len(recs) {
				fmt.Printf("  ... %d more\n", len(recs)-n)
			}
		}
	}

	if *convert != "" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "tracecat: -convert needs -o")
			os.Exit(2)
		}
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: %v\n", err)
			os.Exit(1)
		}
		switch *convert {
		case "text":
			err = trace.Write(f, tr)
		case "binary":
			err = trace.WriteBinary(f, tr)
		default:
			err = fmt.Errorf("unknown codec %q", *convert)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: convert: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", *out, *convert)
	}

	if *replay || *dumpPlat {
		plat := network.Testbed(tr.NumRanks).Platform()
		if path := *platFile; path != "" || *netFile != "" {
			if path == "" {
				path = *netFile
			}
			plat, err = network.ReadPlatformFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tracecat: %v\n", err)
				os.Exit(1)
			}
			if plat.Processors < tr.NumRanks {
				if plat.MultiNode() {
					// Growing a hierarchical platform would silently
					// change its rank packing; make the user resize it.
					fmt.Fprintf(os.Stderr, "tracecat: platform %s has %d processors but trace has %d ranks\n",
						path, plat.Processors, tr.NumRanks)
					os.Exit(1)
				}
				// A flat (one-rank-per-node) platform grows one node per
				// extra rank, preserving its contention model.
				plat = plat.WithProcessors(tr.NumRanks).WithNodes(tr.NumRanks)
			}
		}
		if *dumpPlat {
			if err := plat.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "tracecat: %v\n", err)
				os.Exit(1)
			}
			return
		}
		res, err := sim.Run(plat, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: replay: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replay: finish %.6f s, total wait %.6f s, total compute %.6f s\n",
			res.FinishSec, res.TotalWaitSec(), res.TotalComputeSec())
		if plat.MultiNode() {
			ib, eb, im, em := res.TrafficSplit()
			fmt.Printf("traffic: %d B intra-node (%d msgs), %d B inter-node (%d msgs)\n", ib, im, eb, em)
		}
		fmt.Print(sim.CriticalPathOf(res).Format(6))
	}
}

// load reads a trace in either codec, sniffing the magic.
func load(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := f.Read(magic[:]); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	if string(magic[:7]) == "#DIMGO " {
		return trace.Read(f)
	}
	return trace.ReadBinary(f)
}
