// Package network provides the message transport connecting localities.
//
// The paper's experiments ran on a cluster (two to four ROSTAM nodes over
// Intel MPI). This reproduction has no cluster, so the primary transport
// is an in-process fabric with an explicit cost model: each message pays a
// fixed per-message CPU overhead at the sender and receiver, a per-byte
// CPU cost, serialized transmission time (bandwidth) on its link, and
// wire latency. The CPU costs are actually spent (calibrated busy-wait on
// the calling goroutine), so the runtime's background-work counters and
// wall-clock measurements observe real contention; the wire times are
// slept on dedicated link goroutines, preserving per-link FIFO order.
//
// Per-message overhead is the quantity message coalescing exists to
// amortise ("overheads associated with the creating and sending of
// messages ... rapidly aggregate"): sending k parcels in one message pays
// the fixed costs once instead of k times.
//
// A real TCP loopback transport (see tcp.go) implements the same Fabric
// interface for validation against genuine sockets.
package network

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/timer"
)

// Handler consumes messages delivered to a locality. Handlers run on the
// fabric's delivery goroutines and must be fast — typically they enqueue
// the payload for the locality's scheduler to process as background work.
// The handler assumes ownership of payload and should recycle it with
// PutPayload once fully consumed.
type Handler func(src int, payload []byte)

// Fabric is a transport connecting a fixed set of localities, numbered
// 0..n-1.
type Fabric interface {
	// Send transmits payload from locality src to locality dst. The call
	// blocks for the modeled per-message send CPU cost and then returns;
	// delivery happens asynchronously. Send takes ownership of payload:
	// the caller must not touch it again on success (in-process fabrics
	// deliver the same buffer to the destination handler, which releases
	// it via PutPayload). When Send returns an error the caller retains
	// ownership and may recycle the buffer itself.
	Send(src, dst int, payload []byte) error
	// SetHandler installs the delivery callback for locality dst.
	// It must be called before any Send targeting dst.
	SetHandler(dst int, h Handler)
	// Localities returns the number of endpoints.
	Localities() int
	// Model returns the fabric's cost model (zero for real transports).
	Model() CostModel
	// Stats returns cumulative transmission statistics.
	Stats() Stats
	// Close releases the fabric's resources. Sends after Close fail.
	Close() error
}

// CostModel describes the per-message and per-byte costs of the simulated
// wire. A zero model makes the fabric a plain in-memory queue.
type CostModel struct {
	// SendOverhead is the fixed CPU cost paid by the sending goroutine
	// per message (message setup, protocol handshaking, buffer
	// registration). This is the dominant term coalescing amortises.
	SendOverhead time.Duration
	// RecvOverhead is the fixed CPU cost the receiver pays per message;
	// the parcel port spins it on a scheduler worker while decoding.
	RecvOverhead time.Duration
	// PerByteSendCPU is CPU cost per payload byte at the sender
	// (copies, checksums). Usually small compared to SendOverhead.
	PerByteSendCPU time.Duration
	// Latency is the one-way wire latency; it overlaps between messages.
	Latency time.Duration
	// BandwidthBytesPerUS is link bandwidth in bytes per microsecond
	// (e.g. 1250 ≈ 10 Gb/s). Transmission time serializes per link.
	// Zero means infinite bandwidth.
	BandwidthBytesPerUS float64
	// EagerThresholdBytes models the eager/rendezvous protocol switch of
	// MPI-class transports: messages strictly larger than this pay the
	// rendezvous costs below. Zero disables the rendezvous path.
	// Over-aggressive coalescing pushes messages past this threshold,
	// which is the realistic penalty that makes very large coalesced
	// messages slower — the regime the paper observes for Parquet beyond
	// 4 parcels per message.
	EagerThresholdBytes int
	// RendezvousRTT is the extra one-time delivery delay of a rendezvous
	// message (request-to-send/clear-to-send handshake round trip).
	RendezvousRTT time.Duration
	// RendezvousCPU is extra fixed CPU paid at both the sender and the
	// receiver per rendezvous message (pinning, registration).
	RendezvousCPU time.Duration
	// RendezvousPerByteCPU is extra CPU paid at both sides of a
	// rendezvous message for every payload byte in excess of the eager
	// threshold: bytes beyond the eager window traverse the
	// registered-memory path (pinning, registration-cache pressure),
	// which costs more the further a message overshoots the threshold.
	// This is the term that makes over-aggressive coalescing slower in
	// total, not just per message.
	RendezvousPerByteCPU time.Duration
}

// Rendezvous reports whether a payload of n bytes exceeds the eager
// threshold and therefore pays the rendezvous costs.
func (m CostModel) Rendezvous(n int) bool {
	return m.EagerThresholdBytes > 0 && n > m.EagerThresholdBytes
}

// SendCPU returns the total sender-side CPU cost for a payload of n bytes.
func (m CostModel) SendCPU(n int) time.Duration {
	d := m.SendOverhead + time.Duration(n)*m.PerByteSendCPU
	if m.Rendezvous(n) {
		d += m.RendezvousCPU + time.Duration(n-m.EagerThresholdBytes)*m.RendezvousPerByteCPU
	}
	return d
}

// RecvCPU returns the receiver-side fixed CPU cost for a payload of n
// bytes, including the rendezvous surcharge when it applies.
func (m CostModel) RecvCPU(n int) time.Duration {
	d := m.RecvOverhead
	if m.Rendezvous(n) {
		d += m.RendezvousCPU + time.Duration(n-m.EagerThresholdBytes)*m.RendezvousPerByteCPU
	}
	return d
}

// TxTime returns the serialized wire transmission time for n bytes.
func (m CostModel) TxTime(n int) time.Duration {
	if m.BandwidthBytesPerUS <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.BandwidthBytesPerUS * float64(time.Microsecond))
}

// DefaultCostModel returns the model used by the experiment harness. The
// values are calibrated so that per-message overhead dominates for the
// paper's small-parcel workloads (a single complex double is ~25 bytes of
// payload) while bandwidth still matters for multi-kilobyte coalesced
// messages, mirroring the commodity-cluster regime of the testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		SendOverhead:        25 * time.Microsecond,
		RecvOverhead:        20 * time.Microsecond,
		PerByteSendCPU:      2 * time.Nanosecond,
		Latency:             30 * time.Microsecond,
		BandwidthBytesPerUS: 1250, // ≈ 10 Gb/s
		EagerThresholdBytes: 32 << 10,
		RendezvousRTT:       60 * time.Microsecond,
		RendezvousCPU:       15 * time.Microsecond,
	}
}

// Stats reports cumulative fabric activity. Receive-side counts are
// incremented when a message is handed to the destination handler (for
// PeerFabric, after its frame has been fully read off the socket), so
// sent and received totals converge only once deliveries drain.
type Stats struct {
	MessagesSent     uint64
	BytesSent        uint64
	MessagesReceived uint64
	BytesReceived    uint64
	Dropped          uint64
	Duplicated       uint64
	Delayed          uint64
	Reordered        uint64
}

// FaultAction tells the fabric what to do with a message under fault
// injection.
type FaultAction int

const (
	// FaultDeliver delivers the message normally.
	FaultDeliver FaultAction = iota
	// FaultDrop silently discards the message.
	FaultDrop
	// FaultDuplicate delivers the message twice.
	FaultDuplicate
	// FaultDelay delivers the message after the extra delay carried in
	// Fault.Delay, on top of the modeled wire latency.
	FaultDelay
	// FaultReorder holds the message back and releases it behind the next
	// message transmitted on the same link, swapping their wire order. If
	// no later message ever follows, the held message is released when
	// the link closes (recycled, not delivered) — a retransmission layer
	// above the fabric turns that into plain loss.
	FaultReorder
)

// Fault is a fault-injection decision for one message.
type Fault struct {
	// Action selects what happens to the message.
	Action FaultAction
	// Delay is the extra delivery delay applied by FaultDelay.
	Delay time.Duration
}

// FaultHook inspects every message before transmission and decides its
// fate; tests and the chaos harness use it to inject drops, duplicates,
// delays and reordering deterministically. See FaultPlan for a composable
// configuration-driven implementation.
type FaultHook func(src, dst int, payload []byte) Fault

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("network: fabric closed")

// ErrBadLocality reports an out-of-range locality id.
var ErrBadLocality = errors.New("network: locality out of range")

// ErrLinkDown reports that a reliability layer above the fabric has
// exhausted its retry budget for the destination link and stopped
// retransmitting. It lives here (rather than in internal/reliable) so the
// parcel port can classify send failures without importing the
// reliability layer.
var ErrLinkDown = errors.New("network: link down")

// ErrLocalityDown reports that the destination locality has been declared
// dead by the failure detector: AGAS resolutions, parcel sends and pending
// continuations targeting it fail fast with this error instead of timing
// out. Like ErrLinkDown it lives here so every layer (agas, parcel,
// runtime, lco users) can classify the failure without importing the
// health package.
var ErrLocalityDown = errors.New("network: locality down")

// ErrPeerUnreachable reports that a transport could not reach the
// destination's address: no address is known for the peer yet (it has not
// joined), or dialing the known address failed. It is a transient
// condition — callers above a reliability layer see the send retried once
// the peer's address is installed or its listener comes up — distinct
// from ErrLinkDown (retry budget exhausted) and ErrLocalityDown (declared
// crashed).
var ErrPeerUnreachable = errors.New("network: peer unreachable")

// SimFabric is the in-process simulated fabric.
type SimFabric struct {
	model    CostModel
	handlers []atomic.Pointer[Handler]
	links    map[linkKey]*link
	mu       sync.Mutex
	closed   atomic.Bool
	fault    atomic.Pointer[FaultHook]

	msgs    atomic.Uint64
	bytes   atomic.Uint64
	msgsIn  atomic.Uint64
	bytesIn atomic.Uint64
	drops   atomic.Uint64
	dupes   atomic.Uint64
	delays  atomic.Uint64
	reorder atomic.Uint64
	active  sync.WaitGroup
}

type linkKey struct{ src, dst int }

// link pipelines messages through two stages: a transmit pacer that
// serializes bandwidth, and a delivery stage that adds (overlapping)
// latency while preserving FIFO order. The transmit queue is unbounded so
// Send never blocks on a saturated wire — the modeled costs, not Go
// channel backpressure, pace the system, and bidirectional overload
// cannot deadlock the parcel ports' background-work loops. The queue is a
// ring buffer so sustained traffic neither pins popped payloads nor
// reallocates once the queue reaches its high-water mark.
type link struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      ring.Buffer[linkMsg]
	held   *linkMsg // message parked by FaultReorder awaiting a successor
	closed bool
	dq     chan deliverMsg
}

func newLink() *link {
	lk := &link{dq: make(chan deliverMsg, linkQueueDepth)}
	lk.cond = sync.NewCond(&lk.mu)
	return lk
}

// push enqueues a message; pushes after close recycle the payload instead
// of delivering (the buffer must not leak out of the pool). With hold set
// the message is parked and released behind the next pushed message
// (FaultReorder); at most one message is held per link — a second hold
// while one is parked enqueues normally.
func (lk *link) push(m linkMsg, hold bool) {
	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		PutPayload(m.payload)
		return
	}
	if hold && lk.held == nil {
		lk.held = &m
		lk.mu.Unlock()
		return
	}
	lk.q.Push(m)
	lk.cond.Signal()
	if !hold && lk.held != nil {
		h := *lk.held
		lk.held = nil
		lk.q.Push(h)
		lk.cond.Signal()
	}
	lk.mu.Unlock()
}

// pop dequeues the next message, blocking until one is available or the
// link closes; ok is false when the link is closed and drained.
func (lk *link) pop() (linkMsg, bool) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	for lk.q.Len() == 0 && !lk.closed {
		lk.cond.Wait()
	}
	return lk.q.Pop()
}

func (lk *link) close() {
	lk.mu.Lock()
	lk.closed = true
	if lk.held != nil {
		PutPayload(lk.held.payload)
		lk.held = nil
	}
	lk.cond.Broadcast()
	lk.mu.Unlock()
}

type linkMsg struct {
	src, dst int
	payload  []byte
	// extra is additional delivery delay injected by FaultDelay.
	extra time.Duration
}

type deliverMsg struct {
	src, dst  int
	payload   []byte
	deliverAt time.Time
}

// linkQueueDepth bounds the delivery-stage pipeline per link; the
// transmit queue ahead of it is unbounded.
const linkQueueDepth = 8192

// NewSimFabric creates a simulated fabric connecting n localities with
// the given cost model.
func NewSimFabric(n int, model CostModel) *SimFabric {
	f := &SimFabric{
		model:    model,
		handlers: make([]atomic.Pointer[Handler], n),
		links:    make(map[linkKey]*link),
	}
	return f
}

// Localities implements Fabric.
func (f *SimFabric) Localities() int { return len(f.handlers) }

// Model implements Fabric.
func (f *SimFabric) Model() CostModel { return f.model }

// SetHandler implements Fabric.
func (f *SimFabric) SetHandler(dst int, h Handler) {
	if dst < 0 || dst >= len(f.handlers) {
		panic(fmt.Sprintf("network: SetHandler(%d) out of range", dst))
	}
	f.handlers[dst].Store(&h)
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook.
func (f *SimFabric) SetFaultHook(h FaultHook) {
	if h == nil {
		f.fault.Store(nil)
		return
	}
	f.fault.Store(&h)
}

// Stats implements Fabric.
func (f *SimFabric) Stats() Stats {
	return Stats{
		MessagesSent:     f.msgs.Load(),
		BytesSent:        f.bytes.Load(),
		MessagesReceived: f.msgsIn.Load(),
		BytesReceived:    f.bytesIn.Load(),
		Dropped:          f.drops.Load(),
		Duplicated:       f.dupes.Load(),
		Delayed:          f.delays.Load(),
		Reordered:        f.reorder.Load(),
	}
}

// Send implements Fabric. The caller's goroutine pays the modeled send
// CPU cost before the message enters the wire pipeline.
func (f *SimFabric) Send(src, dst int, payload []byte) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if src < 0 || src >= len(f.handlers) || dst < 0 || dst >= len(f.handlers) {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadLocality, src, dst, len(f.handlers))
	}
	if f.handlers[dst].Load() == nil {
		return fmt.Errorf("network: no handler installed for locality %d", dst)
	}

	// Fault injection happens before any cost is paid so dropped
	// messages are free, matching a send-side drop.
	var fault Fault
	if hook := f.fault.Load(); hook != nil {
		fault = (*hook)(src, dst, payload)
		switch fault.Action {
		case FaultDrop:
			f.drops.Add(1)
			PutPayload(payload)
			return nil
		case FaultDuplicate:
			f.dupes.Add(1)
		case FaultDelay:
			f.delays.Add(1)
		case FaultReorder:
			f.reorder.Add(1)
		}
	}

	// Pay the per-message sender CPU cost on the calling goroutine.
	timer.Spin(f.model.SendCPU(len(payload)))

	f.msgs.Add(1)
	f.bytes.Add(uint64(len(payload)))

	lk := f.getLink(src, dst)
	m := linkMsg{src: src, dst: dst, payload: payload}
	if fault.Action == FaultDelay {
		m.extra = fault.Delay
	}
	lk.push(m, fault.Action == FaultReorder)
	if fault.Action == FaultDuplicate {
		// Each delivery hands buffer ownership to the handler, so the
		// duplicate needs its own copy.
		dup := GetPayload(len(payload))
		copy(dup, payload)
		lk.push(linkMsg{src: src, dst: dst, payload: dup}, false)
	}
	return nil
}

func (f *SimFabric) getLink(src, dst int) *link {
	key := linkKey{src, dst}
	f.mu.Lock()
	defer f.mu.Unlock()
	if lk, ok := f.links[key]; ok {
		return lk
	}
	if f.closed.Load() {
		// The fabric is closing; return an inert, already-closed link so
		// pushes become no-ops.
		lk := newLink()
		lk.close()
		return lk
	}
	lk := newLink()
	f.links[key] = lk
	f.active.Add(2)
	go f.runTx(lk)
	go f.runDelivery(lk)
	return lk
}

// runTx serializes transmission time per link (bandwidth sharing).
func (f *SimFabric) runTx(lk *link) {
	defer f.active.Done()
	for {
		m, ok := lk.pop()
		if !ok {
			break
		}
		if tx := f.model.TxTime(len(m.payload)); tx > 0 && !f.closed.Load() {
			time.Sleep(tx)
		}
		delay := f.model.Latency + m.extra
		if f.model.Rendezvous(len(m.payload)) {
			delay += f.model.RendezvousRTT
		}
		lk.dq <- deliverMsg{
			src: m.src, dst: m.dst, payload: m.payload,
			deliverAt: time.Now().Add(delay),
		}
	}
	close(lk.dq)
}

// runDelivery sleeps until each message's delivery time and invokes the
// destination handler. Delivery times are monotone per link, so FIFO
// order is preserved while latency overlaps between messages.
func (f *SimFabric) runDelivery(lk *link) {
	defer f.active.Done()
	for m := range lk.dq {
		if wait := time.Until(m.deliverAt); wait > 0 && !f.closed.Load() {
			time.Sleep(wait)
		}
		if f.closed.Load() {
			// Undelivered in-flight payloads go back to the pool instead
			// of leaking out of it.
			PutPayload(m.payload)
			continue
		}
		hp := f.handlers[m.dst].Load()
		if hp == nil {
			// No handler installed (torn down mid-flight): recycle instead
			// of leaking the buffer out of the pool.
			PutPayload(m.payload)
			continue
		}
		f.msgsIn.Add(1)
		f.bytesIn.Add(uint64(len(m.payload)))
		(*hp)(m.src, m.payload)
	}
}

// Close implements Fabric. In-flight messages may or may not be delivered.
func (f *SimFabric) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	f.mu.Lock()
	for _, lk := range f.links {
		lk.close()
	}
	f.mu.Unlock()
	f.active.Wait()
	return nil
}
