// Package lco implements Local Control Objects, the synchronization
// primitives of the ParalleX model that HPX uses to coordinate tasks:
// futures and promises, latches, barriers and and-gates.
//
// In this reproduction LCOs play the same role they do in the paper's
// Listing 1: every remote action invocation returns a future, and the toy
// application's phases end with a wait_all over a million futures. The
// parcel subsystem sets each future's value when the result parcel
// arrives back from the remote locality.
package lco

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrTimeout is returned by bounded waits that expire.
var ErrTimeout = errors.New("lco: wait timed out")

// ErrAlreadySet is returned when a promise is set twice.
var ErrAlreadySet = errors.New("lco: promise already set")

// Promise is the write side of a future: a single-assignment slot that
// unblocks all waiters when its value or error is set.
type Promise[T any] struct {
	mu    sync.Mutex
	done  chan struct{}
	val   T
	err   error
	set   bool
	hooks []func(T, error)
}

// NewPromise creates an unset promise.
func NewPromise[T any]() *Promise[T] {
	return &Promise[T]{done: make(chan struct{})}
}

// SetValue fulfils the promise with v. It fails if already set.
func (p *Promise[T]) SetValue(v T) error { return p.set1(v, nil) }

// SetError fulfils the promise with an error. It fails if already set.
func (p *Promise[T]) SetError(err error) error {
	var zero T
	if err == nil {
		err = errors.New("lco: SetError with nil error")
	}
	return p.set1(zero, err)
}

func (p *Promise[T]) set1(v T, err error) error {
	p.mu.Lock()
	if p.set {
		p.mu.Unlock()
		return ErrAlreadySet
	}
	p.val, p.err, p.set = v, err, true
	hooks := p.hooks
	p.hooks = nil
	close(p.done)
	p.mu.Unlock()
	for _, h := range hooks {
		h(v, err)
	}
	return nil
}

// Future returns the read side of the promise.
func (p *Promise[T]) Future() *Future[T] { return &Future[T]{p: p} }

// Future is the read side of a single-assignment slot.
type Future[T any] struct{ p *Promise[T] }

// Get blocks until the future is ready and returns its value or error.
func (f *Future[T]) Get() (T, error) {
	<-f.p.done
	return f.p.val, f.p.err
}

// GetWithTimeout waits at most d; on expiry it returns ErrTimeout.
func (f *Future[T]) GetWithTimeout(d time.Duration) (T, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.p.done:
		return f.p.val, f.p.err
	case <-t.C:
		var zero T
		return zero, ErrTimeout
	}
}

// Ready reports whether the future has been fulfilled.
func (f *Future[T]) Ready() bool {
	select {
	case <-f.p.done:
		return true
	default:
		return false
	}
}

// Done returns a channel closed when the future becomes ready, for use in
// select statements.
func (f *Future[T]) Done() <-chan struct{} { return f.p.done }

// OnReady registers fn to run when the future is fulfilled (immediately,
// on the caller's goroutine, if it already is). This is the continuation
// mechanism parcels use to deliver results.
func (f *Future[T]) OnReady(fn func(T, error)) {
	p := f.p
	p.mu.Lock()
	if p.set {
		v, err := p.val, p.err
		p.mu.Unlock()
		fn(v, err)
		return
	}
	p.hooks = append(p.hooks, fn)
	p.mu.Unlock()
}

// WaitAll blocks until every future in fs is ready and returns the first
// error encountered (in slice order), if any. It is the analog of HPX's
// wait_all in the paper's Listing 1.
func WaitAll[T any](fs []*Future[T]) error {
	var firstErr error
	for _, f := range fs {
		if _, err := f.Get(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WaitAllTimeout waits for every future in fs under one overall deadline,
// armed as a single timer however many futures there are. It returns the
// first error encountered (in slice order) or ErrTimeout if the deadline
// expires first. Fault-tolerant applications use it in place of WaitAll
// so a future whose remote locality died without being poisoned can
// never hang the caller.
func WaitAllTimeout[T any](fs []*Future[T], d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	var firstErr error
	for _, f := range fs {
		select {
		case <-f.p.done:
		case <-t.C:
			return ErrTimeout
		}
		if f.p.err != nil && firstErr == nil {
			firstErr = f.p.err
		}
	}
	return firstErr
}

// WhenAll returns a future that becomes ready with all values once every
// input future is ready, or with the first error.
func WhenAll[T any](fs []*Future[T]) *Future[[]T] {
	p := NewPromise[[]T]()
	go func() {
		out := make([]T, len(fs))
		for i, f := range fs {
			v, err := f.Get()
			if err != nil {
				_ = p.SetError(fmt.Errorf("lco: input %d failed: %w", i, err))
				return
			}
			out[i] = v
		}
		_ = p.SetValue(out)
	}()
	return p.Future()
}

// Latch blocks waiters until its counter reaches zero (HPX latch).
type Latch struct {
	mu    sync.Mutex
	count int
	done  chan struct{}
}

// NewLatch creates a latch with the given initial count; count <= 0 is
// already open.
func NewLatch(count int) *Latch {
	l := &Latch{count: count, done: make(chan struct{})}
	if count <= 0 {
		close(l.done)
	}
	return l
}

// CountDown decrements the counter by n, opening the latch at zero.
// Decrementing an open latch is a no-op.
func (l *Latch) CountDown(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count <= 0 {
		return
	}
	l.count -= n
	if l.count <= 0 {
		close(l.done)
	}
}

// Wait blocks until the latch opens.
func (l *Latch) Wait() { <-l.done }

// Done returns a channel closed when the latch opens, for use in select
// statements alongside cancellation or failure signals.
func (l *Latch) Done() <-chan struct{} { return l.done }

// WaitTimeout waits at most d, returning ErrTimeout on expiry.
func (l *Latch) WaitTimeout(d time.Duration) error {
	select {
	case <-l.done:
		return nil
	case <-time.After(d):
		return ErrTimeout
	}
}

// Count returns the remaining count (0 when open).
func (l *Latch) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count < 0 {
		return 0
	}
	return l.count
}

// Barrier is a reusable rendezvous for a fixed number of participants.
type Barrier struct {
	mu      sync.Mutex
	n       int
	arrived int
	gen     chan struct{}
}

// NewBarrier creates a barrier for n participants; n must be positive.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("lco: barrier size must be positive")
	}
	return &Barrier{n: n, gen: make(chan struct{})}
}

// Arrive blocks until all n participants have arrived, then releases them
// all and resets the barrier for the next generation.
func (b *Barrier) Arrive() {
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		old := b.gen
		b.gen = make(chan struct{})
		b.mu.Unlock()
		close(old)
		return
	}
	gen := b.gen
	b.mu.Unlock()
	<-gen
}

// AndGate becomes ready when all of its slots have been set (HPX and-gate,
// used to trigger work when a known set of inputs has arrived).
type AndGate struct {
	mu    sync.Mutex
	slots []bool
	left  int
	done  chan struct{}
}

// NewAndGate creates a gate with n unset slots; n must be positive.
func NewAndGate(n int) *AndGate {
	if n <= 0 {
		panic("lco: and-gate size must be positive")
	}
	return &AndGate{slots: make([]bool, n), left: n, done: make(chan struct{})}
}

// Set marks slot i. Setting a slot twice or out of range returns an error;
// the gate opens when every slot is set.
func (g *AndGate) Set(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.slots) {
		return fmt.Errorf("lco: and-gate slot %d out of range [0,%d)", i, len(g.slots))
	}
	if g.slots[i] {
		return fmt.Errorf("lco: and-gate slot %d already set", i)
	}
	g.slots[i] = true
	g.left--
	if g.left == 0 {
		close(g.done)
	}
	return nil
}

// Wait blocks until all slots are set.
func (g *AndGate) Wait() { <-g.done }

// Ready reports whether the gate is open.
func (g *AndGate) Ready() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}
