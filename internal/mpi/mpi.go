// Package mpi is the message-passing substrate the synthetic applications
// run on: the stand-in for the MPI library plus cluster of the paper's
// experimental setup.
//
// Ranks are goroutines; point-to-point transfers move real data through
// per-rank mailboxes with MPI-style (source, tag) matching and
// non-overtaking order. Allreduce, the one collective the application
// kernels call, is implemented on top of point-to-point transfers only (a
// binomial reduce followed by a binomial broadcast), matching the paper's
// Dimemas configuration: "collective communication operations are
// performed ... without assuming any collective hardware support on the
// network, so they are implemented as usual using multiple point-to-point
// MPI transfers".
//
// The package is deliberately oblivious to virtual time: timing is the
// business of the tracer and the simulator. What matters here is that data
// really moves, so application kernels compute real values and tests can
// assert numerical results.
package mpi

import (
	"fmt"
	"sync"
)

// Proc is one rank's endpoint. Methods on Proc are only safe to call from
// the goroutine running that rank.
type Proc struct {
	rank  int
	world *World
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the world.
func (p *Proc) Size() int { return p.world.size }

// PointToPoint is the transport interface the collectives are written
// against. Both *Proc and the tracer's instrumented process implement it,
// so collectives invoked through the tracer decompose into *instrumented*
// point-to-point transfers and show up in the trace as such.
type PointToPoint interface {
	Rank() int
	Size() int
	Send(dst, tag int, data []float64)
	Recv(buf []float64, src, tag int)
}

var _ PointToPoint = (*Proc)(nil)

// World owns the mailboxes of a set of ranks.
type World struct {
	size    int
	inboxes []*inbox
}

// NewWorld creates a world of n ranks.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size %d, must be positive", n)
	}
	w := &World{size: n, inboxes: make([]*inbox, n)}
	for i := range w.inboxes {
		w.inboxes[i] = newInbox()
	}
	return w, nil
}

// Proc returns the endpoint of the given rank.
func (w *World) Proc(rank int) *Proc {
	return &Proc{rank: rank, world: w}
}

// Run spawns fn once per rank, each on its own goroutine, and waits for all
// of them. A panic in any rank is recovered and reported as an error naming
// the rank; the remaining ranks are still waited for (they may deadlock
// only if they depended on the failed rank, in which case the program hangs
// — an accepted property of a real MPI job as well, kept simple here
// because our kernels are deterministic).
func Run(n int, fn func(p *Proc)) error {
	w, err := NewWorld(n)
	if err != nil {
		return err
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
				}
			}()
			fn(w.Proc(rank))
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Mailboxes and matching

type matchKey struct {
	src, tag int
}

type message struct {
	data []float64
}

type pendingRecv struct {
	buf  []float64
	done chan struct{}
}

type inbox struct {
	mu         sync.Mutex
	unexpected map[matchKey][]message
	pending    map[matchKey][]*pendingRecv
}

func newInbox() *inbox {
	return &inbox{
		unexpected: map[matchKey][]message{},
		pending:    map[matchKey][]*pendingRecv{},
	}
}

// Send delivers data to dst with the given tag. Delivery is buffered
// (eager): Send copies the payload and returns without waiting for the
// matching receive, so simple send-then-receive exchange patterns cannot
// deadlock. Matching is FIFO per (source, tag).
func (p *Proc) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= p.world.size {
		panic(fmt.Sprintf("mpi: rank %d Send to invalid rank %d", p.rank, dst))
	}
	if dst == p.rank {
		panic(fmt.Sprintf("mpi: rank %d Send to self", p.rank))
	}
	ib := p.world.inboxes[dst]
	k := matchKey{src: p.rank, tag: tag}
	ib.mu.Lock()
	if q := ib.pending[k]; len(q) > 0 {
		pr := q[0]
		ib.pending[k] = q[1:]
		if len(pr.buf) != len(data) {
			ib.mu.Unlock()
			panic(fmt.Sprintf("mpi: size mismatch %d->%d tag %d: send %d, recv %d",
				p.rank, dst, tag, len(data), len(pr.buf)))
		}
		copy(pr.buf, data)
		ib.mu.Unlock()
		close(pr.done)
		return
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	ib.unexpected[k] = append(ib.unexpected[k], message{data: cp})
	ib.mu.Unlock()
}

// Recv blocks until a message from src with the given tag arrives and
// copies it into buf. The payload length must equal len(buf).
func (p *Proc) Recv(buf []float64, src, tag int) {
	req := p.Irecv(buf, src, tag)
	req.Wait()
}

// Request represents an outstanding non-blocking operation.
type Request struct {
	done chan struct{}
}

// Wait blocks until the operation completes.
func (r *Request) Wait() { <-r.done }

// Done reports whether the operation has completed without blocking.
func (r *Request) Done() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Irecv posts a non-blocking receive into buf and returns its request.
func (p *Proc) Irecv(buf []float64, src, tag int) *Request {
	if src < 0 || src >= p.world.size {
		panic(fmt.Sprintf("mpi: rank %d Irecv from invalid rank %d", p.rank, src))
	}
	if src == p.rank {
		panic(fmt.Sprintf("mpi: rank %d Irecv from self", p.rank))
	}
	ib := p.world.inboxes[p.rank]
	k := matchKey{src: src, tag: tag}
	req := &Request{done: make(chan struct{})}
	ib.mu.Lock()
	if q := ib.unexpected[k]; len(q) > 0 {
		m := q[0]
		ib.unexpected[k] = q[1:]
		if len(buf) != len(m.data) {
			ib.mu.Unlock()
			panic(fmt.Sprintf("mpi: size mismatch %d->%d tag %d: send %d, recv %d",
				src, p.rank, tag, len(m.data), len(buf)))
		}
		copy(buf, m.data)
		ib.mu.Unlock()
		close(req.done)
		return req
	}
	ib.pending[k] = append(ib.pending[k], &pendingRecv{buf: buf, done: req.done})
	ib.mu.Unlock()
	return req
}
