package core

import (
	"errors"
	"sync"

	"crossbow/internal/tensor"
)

// ErrLoopbackClosed is what a Loopback rank's AllReduce returns once any
// rank has left the exchange.
var ErrLoopbackClosed = errors.New("core: loopback exchange closed")

// Loopback is the in-process GlobalExchanger: the n ranks of a cluster run
// that share one address space all-reduce through memory instead of
// sockets. It is the socket-free twin of the TCP transport — the same
// DistClusterSMA runs over either — and what the simulated transport of
// the root package and this package's tests train over.
//
// A round completes when all n ranks have arrived. The last arrival sums
// the buffers into rank 0's in ascending rank order, ((b0+b1)+b2)+… with
// tensor.AccumAdd, and copies the sum into every other buffer, so all
// ranks leave with the same bytes. The TCP collective folds every chunk in
// the same ascending order, so the two exchangers hand out the same bytes
// at every rank count (DESIGN.md §4, "Reduction order").
//
// A rank that stops calling AllReduce must Close the exchange: peers inside
// a round that can no longer complete, and every later call, get
// ErrLoopbackClosed instead of waiting forever. DistClusterSMA treats the
// error like a closed transport and trains on locally.
type Loopback struct {
	mu      sync.Mutex
	cond    *sync.Cond
	bufs    [][]float32 // this round's buffer per rank
	arrived int
	seq     uint64 // completed rounds
	closed  bool
}

// NewLoopback creates an exchange for n ranks.
func NewLoopback(n int) *Loopback {
	if n < 1 {
		panic("core: a loopback exchange needs at least one rank")
	}
	l := &Loopback{bufs: make([][]float32, n)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Rank returns rank r's view of the exchange.
func (l *Loopback) Rank(r int) GlobalExchanger { return loopbackRank{l, r} }

// Close ends the exchange for every rank. Rounds that already completed
// still report success to ranks that have not woken up yet.
func (l *Loopback) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

type loopbackRank struct {
	l    *Loopback
	rank int
}

func (h loopbackRank) AllReduce(buf []float32) (ExchangeRound, error) {
	l := h.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ExchangeRound{}, ErrLoopbackClosed
	}
	round := l.seq
	l.bufs[h.rank] = buf
	l.arrived++
	if l.arrived == len(l.bufs) {
		sum := l.bufs[0]
		for _, b := range l.bufs[1:] {
			tensor.AccumAdd(sum, b)
		}
		for _, b := range l.bufs[1:] {
			copy(b, sum)
		}
		l.arrived = 0
		l.seq++
		l.cond.Broadcast()
	}
	for l.seq == round {
		if l.closed {
			return ExchangeRound{}, ErrLoopbackClosed
		}
		l.cond.Wait()
	}
	return ExchangeRound{Seq: round + 1, Participants: len(l.bufs)}, nil
}
