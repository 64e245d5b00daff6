package mpi

import (
	"fmt"
	"math"
)

// Collective operations, lowered to point-to-point transfers through the
// PointToPoint interface so they remain fully visible to the tracer:
// Allreduce, the one collective the application kernels call, and the two
// binomial trees it is built from, Reduce and Bcast.
//
// Each invocation takes a caller-provided sequence number (seq); Allreduce
// uses seq and seq+1. All ranks must call collectives in the same order
// with the same seq; tags derived from seq keep rounds of different
// collective invocations from interfering; the tracer's Proc hands the
// numbers out.

// collTagBase separates collective traffic from application tags.
// Application tags must stay below this value.
const collTagBase = 1 << 24

// collRoundSpace bounds the number of rounds one collective invocation may
// use; the binomial trees use ceil(log2 Size) rounds.
const collRoundSpace = 1 << 16

// CollTag derives the wire tag for round r of collective invocation seq.
func CollTag(seq, round int) int {
	return collTagBase + seq*collRoundSpace + round
}

// Op is a reduction operator over float64 values.
type Op func(a, b float64) float64

// Built-in reduction operators.
var (
	OpSum  Op = func(a, b float64) float64 { return a + b }
	OpMax  Op = math.Max
	OpMin  Op = math.Min
	OpProd Op = func(a, b float64) float64 { return a * b }
)

// Bcast distributes buf from root to every rank over a binomial tree.
func Bcast(p PointToPoint, buf []float64, root, seq int) {
	n := p.Size()
	if n == 1 {
		return
	}
	me := (p.Rank() - root + n) % n // virtual rank: root is 0
	// Receive from parent (the virtual rank with the lowest set bit
	// cleared), then forward to children.
	if me != 0 {
		parent := me &^ (me & -me)
		p.Recv(buf, (parent+root)%n, CollTag(seq, 0))
	}
	for k := nextPow2(n) / 2; k >= 1; k /= 2 {
		if me&(k-1) == 0 && me&k == 0 {
			child := me | k
			if child < n {
				p.Send((child+root)%n, CollTag(seq, 0), buf)
			}
		}
	}
}

// Reduce combines the buf contributions of all ranks element-wise with op
// into out on root. out is only written on root and must have len(buf).
// Non-root ranks may pass nil for out.
func Reduce(p PointToPoint, buf, out []float64, op Op, root, seq int) {
	n := p.Size()
	me := (p.Rank() - root + n) % n
	acc := make([]float64, len(buf))
	copy(acc, buf)
	tmp := make([]float64, len(buf))
	// Binomial tree: in round k, virtual ranks with bit k set send their
	// accumulator to (me - k) and exit; the receiver folds it in.
	for k := 1; k < n; k *= 2 {
		if me&k != 0 {
			p.Send(((me-k)+root)%n, CollTag(seq, ilog2(k)), acc)
			return
		}
		if me+k < n {
			p.Recv(tmp, ((me+k)+root)%n, CollTag(seq, ilog2(k)))
			for i := range acc {
				acc[i] = op(acc[i], tmp[i])
			}
		}
	}
	if p.Rank() == root && out != nil {
		copy(out, acc)
	}
}

// Allreduce combines buf across all ranks with op and leaves the result in
// out on every rank (reduce to rank 0 followed by broadcast: two binomial
// trees, 2*log2(n) point-to-point steps). buf and out may alias.
func Allreduce(p PointToPoint, buf, out []float64, op Op, seq int) {
	if len(out) != len(buf) {
		panic(fmt.Sprintf("mpi: Allreduce buffer sizes differ: %d vs %d", len(buf), len(out)))
	}
	if p.Rank() == 0 {
		Reduce(p, buf, out, op, 0, seq)
	} else {
		Reduce(p, buf, nil, op, 0, seq)
	}
	Bcast(p, out, 0, seq+1)
}

func nextPow2(n int) int {
	k := 1
	for k < n {
		k *= 2
	}
	return k
}

func ilog2(k int) int {
	r := 0
	for k > 1 {
		k /= 2
		r++
	}
	return r
}
