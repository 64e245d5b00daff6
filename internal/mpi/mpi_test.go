package mpi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewWorldRejectsNonPositive(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewWorld(-3); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestSendRecvMovesData(t *testing.T) {
	err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 9, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			p.Recv(buf, 0, 9)
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Errorf("got %v", buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			data := []float64{42}
			p.Send(1, 0, data)
			data[0] = -1 // mutate after send: receiver must see 42
			p.Send(1, 1, data)
		} else {
			var buf [1]float64
			p.Recv(buf[:], 0, 0)
			if buf[0] != 42 {
				t.Errorf("first message corrupted: %v", buf[0])
			}
			p.Recv(buf[:], 0, 1)
			if buf[0] != -1 {
				t.Errorf("second message wrong: %v", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 5, []float64{5})
			p.Send(1, 7, []float64{7})
		} else {
			var a, b [1]float64
			p.Recv(b[:], 0, 7) // receive tags out of send order
			p.Recv(a[:], 0, 5)
			if a[0] != 5 || b[0] != 7 {
				t.Errorf("tag matching broken: a=%v b=%v", a[0], b[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				p.Send(1, 3, []float64{float64(i)})
			}
		} else {
			var buf [1]float64
			for i := 0; i < 10; i++ {
				p.Recv(buf[:], 0, 3)
				if buf[0] != float64(i) {
					t.Errorf("message %d overtaken: got %v", i, buf[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvWait(t *testing.T) {
	err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, []float64{3.14})
		} else {
			var buf [1]float64
			req := p.Irecv(buf[:], 0, 0)
			req.Wait()
			if buf[0] != 3.14 {
				t.Errorf("irecv data: %v", buf[0])
			}
			if !req.Done() {
				t.Error("request not done after Wait")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReportsPanics(t *testing.T) {
	err := Run(2, func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestSendValidation(t *testing.T) {
	err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(5, 0, nil) // invalid destination: panics, recovered by Run
		}
	})
	if err == nil {
		t.Fatal("invalid destination accepted")
	}
	err = Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(0, 0, nil) // self send
		}
	})
	if err == nil {
		t.Fatal("self send accepted")
	}
}

func worldSizes() []int { return []int{1, 2, 3, 4, 5, 8, 13, 16} }

func TestBcast(t *testing.T) {
	for _, n := range worldSizes() {
		for root := 0; root < n; root += 1 + n/3 {
			err := Run(n, func(p *Proc) {
				buf := make([]float64, 4)
				if p.Rank() == root {
					for i := range buf {
						buf[i] = float64(10*root + i)
					}
				}
				Bcast(p, buf, root, 0)
				for i := range buf {
					if buf[i] != float64(10*root+i) {
						t.Errorf("n=%d root=%d rank=%d: buf=%v", n, root, p.Rank(), buf)
						return
					}
				}
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range worldSizes() {
		err := Run(n, func(p *Proc) {
			in := []float64{float64(p.Rank()), 1}
			var out []float64
			if p.Rank() == 0 {
				out = make([]float64, 2)
			}
			Reduce(p, in, out, OpSum, 0, 0)
			if p.Rank() == 0 {
				wantSum := float64(n*(n-1)) / 2
				if out[0] != wantSum || out[1] != float64(n) {
					t.Errorf("n=%d: reduce got %v, want [%v %v]", n, out, wantSum, float64(n))
				}
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	ops := []struct {
		name string
		op   Op
		want func(n int) float64
	}{
		{"sum", OpSum, func(n int) float64 { return float64(n*(n-1)) / 2 }},
		{"max", OpMax, func(n int) float64 { return float64(n - 1) }},
		{"min", OpMin, func(n int) float64 { return 0 }},
	}
	for _, n := range worldSizes() {
		for _, tc := range ops {
			err := Run(n, func(p *Proc) {
				in := []float64{float64(p.Rank())}
				out := make([]float64, 1)
				Allreduce(p, in, out, tc.op, 0)
				if out[0] != tc.want(n) {
					t.Errorf("n=%d %s: rank %d got %v, want %v", n, tc.name, p.Rank(), out[0], tc.want(n))
				}
			})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, tc.name, err)
			}
		}
	}
}

func TestAllreduceProd(t *testing.T) {
	err := Run(4, func(p *Proc) {
		in := []float64{2}
		out := make([]float64, 1)
		Allreduce(p, in, out, OpProd, 0)
		if out[0] != 16 {
			t.Errorf("prod: %v", out[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesInterleaveWithP2P(t *testing.T) {
	// Collectives and app point-to-point traffic with overlapping tag use
	// must not interfere thanks to the tag-space partition.
	err := Run(4, func(p *Proc) {
		out := make([]float64, 1)
		if p.Rank() == 0 {
			p.Send(1, 0, []float64{77})
		}
		Allreduce(p, []float64{1}, out, OpSum, 0)
		if p.Rank() == 1 {
			var buf [1]float64
			p.Recv(buf[:], 0, 0)
			if buf[0] != 77 {
				t.Errorf("p2p payload corrupted: %v", buf[0])
			}
		}
		if out[0] != 4 {
			t.Errorf("allreduce alongside p2p: %v", out[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAllreduceSumMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%7+7)%7 + 2 // 2..8
		vals := make([]float64, n)
		x := seed
		for i := range vals {
			x = x*6364136223846793005 + 1442695040888963407
			vals[i] = float64(x%1000) / 10
		}
		var want float64
		for _, v := range vals {
			want += v
		}
		okc := make(chan bool, n)
		err := Run(n, func(p *Proc) {
			out := make([]float64, 1)
			Allreduce(p, []float64{vals[p.Rank()]}, out, OpSum, 0)
			okc <- math.Abs(out[0]-want) < 1e-9
		})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if !<-okc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCollTagDisjointFromAppTags(t *testing.T) {
	if CollTag(0, 0) < collTagBase {
		t.Fatal("collective tags overlap application tag space")
	}
	seen := map[int]bool{}
	for seq := 0; seq < 6; seq++ {
		for round := 0; round < 64; round++ {
			tag := CollTag(seq, round)
			if seen[tag] {
				t.Fatalf("duplicate collective tag %d", tag)
			}
			seen[tag] = true
		}
	}
}
