// Package reliable implements a per-link reliable-delivery protocol
// between the parcel port and the network fabric.
//
// The paper's experiments ran HPX over Intel MPI, which guarantees
// delivery; this reproduction's substitutes do not. SimFabric's fault
// hooks can drop, duplicate, delay and reorder wire messages, and the
// TCP transport (PeerFabric, and TCPFabric built from it) loses
// everything in flight on a connection error — without a reliability
// layer a single injected fault deadlocks Port.Drain and corrupts the
// Section III counters the adaptive tuners feed on. This
// package makes loss a first-class, measurable scenario: every wire
// message carries a monotone per-link sequence number and a piggybacked
// cumulative ACK; the sender keeps an unacked-window retransmission queue
// with exponential backoff and jitter, a standalone-ACK timer covers
// quiet reverse links, and a bounded retry budget surfaces ErrLinkDown
// instead of retrying forever. The receiver maintains a cumulative dedup
// window and a small reorder buffer so handlers observe exactly-once,
// in-order delivery no matter what the wire does underneath.
//
// Frame format (little-endian), prepended to the inner payload:
//
//	byte  0     magic (0xD7)
//	byte  1     kind: 1 = data, 2 = standalone ACK, 3 = probe
//	bytes 2-9   sequence number (data frames; 0 otherwise)
//	bytes 10-17 cumulative ACK for the reverse link
//	bytes 18-21 link session epoch of the data stream (0 on ACK/probe)
//	bytes 22-25 session epoch the cumulative ACK refers to
//
// Sequence numbers start at 1 per (src,dst) link *within a session
// epoch*; a cumulative ACK of k acknowledges every data frame with
// seq <= k in the epoch it names. Standalone ACK frames are themselves
// unreliable — a lost ACK merely provokes a retransmission, which the
// receiver's dedup window suppresses.
//
// Session epochs make partition heal safe: when a peer is re-opened
// after having been failed (ReopenPeer), the sender bumps the link's
// epoch and restarts sequences at 1. The receiver drops data frames
// from an older epoch (pre-partition retransmits still in flight) and
// ignores ACKs naming an epoch other than the sender's current one
// (stale ACKs from before the partition), so neither can corrupt the
// fresh session's resequencer. Probe frames sit entirely outside the
// reliability machinery: no sequence, no window, no dedup — they exist
// so the membership layer can exchange liveness evidence with a peer
// the data plane currently refuses to talk to.
//
// The layer wraps any network.Fabric (simulated or TCP) and is itself a
// network.Fabric, so the parcel port and runtime stack on top unchanged.
package reliable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/network"
	"repro/internal/trace"
)

const (
	frameMagic  = 0xD7
	kindData    = 1
	kindAck     = 2
	kindProbe   = 3
	headerBytes = 26
)

// Config tunes the reliability protocol. The zero value selects defaults
// suited to the simulated fabric's default cost model.
type Config struct {
	// RTO is the initial retransmission timeout. It should exceed one
	// round trip plus AckDelay, or every message is sent twice
	// (default 3ms).
	RTO time.Duration
	// RTOBackoff multiplies the timeout after each retransmission
	// (default 2.0).
	RTOBackoff float64
	// RTOMax caps the backed-off timeout (default 100ms).
	RTOMax time.Duration
	// Jitter spreads each retransmission deadline uniformly over
	// [1-Jitter/2, 1+Jitter/2] x RTO so synchronized losses do not
	// retransmit in lockstep (default 0.2; 0 < Jitter < 1).
	Jitter float64
	// MaxRetries is the retry budget per frame: after the original send
	// plus MaxRetries retransmissions go unacknowledged, the link is
	// declared down, pending frames are discarded, and subsequent Sends
	// on the link return ErrLinkDown. The link-down deadline is therefore
	// roughly sum_{i=0..MaxRetries} min(RTO*RTOBackoff^i, RTOMax)
	// (default 8).
	MaxRetries int
	// AckDelay bounds how long a received frame waits for reverse
	// traffic to piggyback its ACK before a standalone ACK frame is sent
	// (default 500µs).
	AckDelay time.Duration
	// Tick is the granularity of the retransmit/ACK scanner goroutine
	// (default 250µs).
	Tick time.Duration
	// Window caps the receiver's out-of-order reorder buffer per link,
	// in frames; frames beyond the window are dropped and re-delivered
	// by retransmission (default 4096).
	Window int
	// Seed seeds the jitter PRNG for reproducible chaos runs (default 1).
	Seed int64
	// Registry optionally receives the reliability counters
	// (/network/reliability/{retransmits,duplicates-suppressed,acks,
	// link-down,link-down-remote}); nil disables registration (counters
	// still function).
	Registry *counters.Registry
	// Trace optionally records KindRetransmit events for retransmissions
	// and KindLinkDown events for link-down declarations (at both the
	// sending and the receiving locality); nil disables.
	Trace *trace.Buffer
}

func (c Config) withDefaults() Config {
	if c.RTO <= 0 {
		c.RTO = 3 * time.Millisecond
	}
	if c.RTOBackoff < 1 {
		c.RTOBackoff = 2.0
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 100 * time.Millisecond
	}
	if c.Jitter <= 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.AckDelay <= 0 {
		c.AckDelay = 500 * time.Microsecond
	}
	if c.Tick <= 0 {
		c.Tick = 250 * time.Microsecond
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

type linkKey struct{ src, dst int }

// txEntry is one unacknowledged data frame retained for retransmission.
type txEntry struct {
	seq       uint64
	payload   []byte // original payload; recycled once acknowledged
	attempts  int    // transmissions so far (1 = original send)
	rto       time.Duration
	nextRetry time.Time
}

// txState is the sender side of one link.
type txState struct {
	mu    sync.Mutex
	next  uint64 // next sequence number to assign, starting at 1
	epoch uint32 // session epoch stamped on every data frame
	q     []txEntry
	down  bool
}

// rxState is the receiver side of one link.
type rxState struct {
	mu         sync.Mutex
	epoch      uint32            // session epoch adopted from the sender
	delivered  uint64            // highest in-order sequence delivered
	reorder    map[uint64][]byte // out-of-order frames awaiting the gap
	ackPending bool
	ackBy      time.Time
}

// Fabric is a reliable-delivery layer over an inner network.Fabric. It
// implements network.Fabric itself; Close closes the inner fabric.
type Fabric struct {
	inner  network.Fabric
	cfg    Config
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	mu sync.Mutex
	tx map[linkKey]*txState
	rx map[linkKey]*rxState

	handlers      []atomic.Pointer[network.Handler]
	probeHandlers []atomic.Pointer[func(src int, payload []byte)]

	// baseEpoch seeds each new link's session epoch. It is derived from
	// wall-clock milliseconds so a crash-restarted process starts its
	// links at a higher epoch than any pre-crash frames still in flight.
	baseEpoch uint32

	rngMu sync.Mutex
	rng   *rand.Rand

	onLinkDown atomic.Pointer[func(src, dst int)]

	// downPeers marks localities declared dead by the failure detector
	// (FailPeer): every Send touching one fails fast with
	// network.ErrLocalityDown instead of burning a retry budget.
	downPeers []atomic.Bool

	// The reliability counters of the introspection stack.
	retransmits   *counters.Raw // /network/reliability/retransmits
	dupSuppressed *counters.Raw // /network/reliability/duplicates-suppressed
	acks          *counters.Raw // /network/reliability/acks
	linkDowns     *counters.Raw // /network/reliability/link-down
	linkDownsRem  *counters.Raw // /network/reliability/link-down-remote
	staleEpochs   *counters.Raw // /network/reliability/stale-epoch
}

// New wraps inner in a reliability layer. The returned fabric owns inner:
// closing it closes inner.
func New(inner network.Fabric, cfg Config) *Fabric {
	cfg = cfg.withDefaults()
	mk := func(name string) *counters.Raw {
		return counters.NewRaw(counters.Path{Object: "network", Name: "reliability/" + name})
	}
	f := &Fabric{
		inner:         inner,
		cfg:           cfg,
		stop:          make(chan struct{}),
		tx:            make(map[linkKey]*txState),
		rx:            make(map[linkKey]*rxState),
		handlers:      make([]atomic.Pointer[network.Handler], inner.Localities()),
		probeHandlers: make([]atomic.Pointer[func(src int, payload []byte)], inner.Localities()),
		baseEpoch:     uint32(time.Now().UnixMilli()),
		downPeers:     make([]atomic.Bool, inner.Localities()),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		retransmits:   mk("retransmits"),
		dupSuppressed: mk("duplicates-suppressed"),
		acks:          mk("acks"),
		linkDowns:     mk("link-down"),
		linkDownsRem:  mk("link-down-remote"),
		staleEpochs:   mk("stale-epoch"),
	}
	if f.baseEpoch == 0 {
		f.baseEpoch = 1 // epoch 0 means "no session yet" on the rx side
	}
	if cfg.Registry != nil {
		for _, c := range []*counters.Raw{f.retransmits, f.dupSuppressed, f.acks, f.linkDowns, f.linkDownsRem, f.staleEpochs} {
			cfg.Registry.MustRegister(c)
		}
	}
	f.wg.Add(1)
	go f.run()
	return f
}

// Localities implements network.Fabric.
func (f *Fabric) Localities() int { return f.inner.Localities() }

// Model implements network.Fabric, exposing the inner fabric's cost model
// so receive-side CPU accounting is unchanged.
func (f *Fabric) Model() network.CostModel { return f.inner.Model() }

// Stats implements network.Fabric, reporting the inner fabric's wire
// statistics (which include retransmissions and ACK frames — the traffic
// reliability costs). Protocol-level counts are in ReliabilityStats.
func (f *Fabric) Stats() network.Stats { return f.inner.Stats() }

// ReliabilityStats is a snapshot of the protocol counters.
type ReliabilityStats struct {
	// Retransmits counts data-frame retransmissions.
	Retransmits int64
	// DuplicatesSuppressed counts received data frames discarded by the
	// dedup window (already-delivered or already-buffered sequences).
	DuplicatesSuppressed int64
	// AcksSent counts standalone ACK frames transmitted (piggybacked
	// ACKs ride on data frames and are not counted separately).
	AcksSent int64
	// LinkDowns counts links declared down after an exhausted retry
	// budget, observed at the sender.
	LinkDowns int64
	// LinkDownsRemote counts the same declarations surfaced at the
	// receiving locality, so an asymmetric partition (src hears dst, dst
	// never hears src) is visible from both ends of the link.
	LinkDownsRemote int64
	// StaleEpochs counts frames discarded for naming an old session
	// epoch: pre-partition retransmits and stale ACKs arriving after
	// ReopenPeer restarted the link.
	StaleEpochs int64
}

// ReliabilityStats returns a snapshot of the protocol counters.
func (f *Fabric) ReliabilityStats() ReliabilityStats {
	return ReliabilityStats{
		Retransmits:          f.retransmits.Get(),
		DuplicatesSuppressed: f.dupSuppressed.Get(),
		AcksSent:             f.acks.Get(),
		LinkDowns:            f.linkDowns.Get(),
		LinkDownsRemote:      f.linkDownsRem.Get(),
		StaleEpochs:          f.staleEpochs.Get(),
	}
}

// SetLinkDownFunc installs a callback invoked (from the scanner
// goroutine) when a link exhausts its retry budget. The runtime uses it
// to degrade coalescing for the dead destination.
func (f *Fabric) SetLinkDownFunc(fn func(src, dst int)) {
	if fn == nil {
		f.onLinkDown.Store(nil)
		return
	}
	f.onLinkDown.Store(&fn)
}

// FailPeer marks a locality as dead: every link touching it is declared
// down immediately, pending retransmission windows and reorder buffers
// to/from it are discarded (the coalescing layer above flushes its own
// queues), and subsequent Sends fail fast with network.ErrLocalityDown.
// The failure detector calls this on suspicion so in-flight traffic stops
// burning retry budgets against a peer that will never ACK. FailPeer is
// idempotent and does not fire the link-down callback — the caller
// already knows.
func (f *Fabric) FailPeer(peer int) {
	if peer < 0 || peer >= len(f.downPeers) || f.downPeers[peer].Swap(true) {
		return
	}
	f.mu.Lock()
	var txs []*txState
	for k, ts := range f.tx {
		if k.src == peer || k.dst == peer {
			txs = append(txs, ts)
		}
	}
	var rxs []*rxState
	for k, rs := range f.rx {
		if k.src == peer || k.dst == peer {
			rxs = append(rxs, rs)
		}
	}
	f.mu.Unlock()
	for _, ts := range txs {
		ts.mu.Lock()
		if !ts.down {
			ts.down = true
			for i := range ts.q {
				network.PutPayload(ts.q[i].payload)
				ts.q[i].payload = nil
			}
			ts.q = nil
		}
		ts.mu.Unlock()
	}
	for _, rs := range rxs {
		rs.mu.Lock()
		for seq, b := range rs.reorder {
			network.PutPayload(b)
			delete(rs.reorder, seq)
		}
		rs.ackPending = false
		rs.mu.Unlock()
	}
	f.cfg.Trace.Record(trace.Event{
		Kind: trace.KindLinkDown, Name: "peer-down",
		Locality: peer, Start: time.Now(),
	})
}

// ReopenPeer reverses FailPeer for a locality that has rejoined the
// cluster. Every link touching the peer is un-declared: the sender side
// restarts with a fresh session epoch and sequence 1, so the rejoined
// receiver's dedup window cannot mistake the new stream's first frames
// for pre-partition duplicates; the receiver side discards its reorder
// buffer but keeps its delivered/epoch watermark — the first data frame
// of the peer's new epoch resets it lazily (see onFrame), which also
// covers the remote restarting without us noticing. Idempotent; a
// no-op for peers that were never failed.
func (f *Fabric) ReopenPeer(peer int) {
	if peer < 0 || peer >= len(f.downPeers) || !f.downPeers[peer].Swap(false) {
		return
	}
	now32 := uint32(time.Now().UnixMilli())
	f.mu.Lock()
	var txs []*txState
	for k, ts := range f.tx {
		if k.src == peer || k.dst == peer {
			txs = append(txs, ts)
		}
	}
	var rxs []*rxState
	for k, rs := range f.rx {
		if k.src == peer || k.dst == peer {
			rxs = append(rxs, rs)
		}
	}
	f.mu.Unlock()
	for _, ts := range txs {
		ts.mu.Lock()
		for i := range ts.q {
			network.PutPayload(ts.q[i].payload)
			ts.q[i].payload = nil
		}
		ts.q = nil
		ts.down = false
		ts.next = 1
		if now32 > ts.epoch {
			ts.epoch = now32
		} else {
			ts.epoch++
		}
		ts.mu.Unlock()
	}
	for _, rs := range rxs {
		rs.mu.Lock()
		for seq, b := range rs.reorder {
			network.PutPayload(b)
			delete(rs.reorder, seq)
		}
		rs.ackPending = false
		rs.mu.Unlock()
	}
	f.cfg.Trace.Record(trace.Event{
		Kind: trace.KindLinkDown, Name: "peer-up",
		Locality: peer, Start: time.Now(),
	})
}

// PeerDown reports whether FailPeer has been called for the locality.
func (f *Fabric) PeerDown(peer int) bool {
	return peer >= 0 && peer < len(f.downPeers) && f.downPeers[peer].Load()
}

// LinkDown reports whether the src->dst link has been declared down.
func (f *Fabric) LinkDown(src, dst int) bool {
	f.mu.Lock()
	ts := f.tx[linkKey{src, dst}]
	f.mu.Unlock()
	if ts == nil {
		return false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.down
}

// Pending returns the total number of unacknowledged data frames across
// all links (in-flight plus awaiting retransmission).
func (f *Fabric) Pending() int {
	f.mu.Lock()
	states := make([]*txState, 0, len(f.tx))
	for _, ts := range f.tx {
		states = append(states, ts)
	}
	f.mu.Unlock()
	n := 0
	for _, ts := range states {
		ts.mu.Lock()
		n += len(ts.q)
		ts.mu.Unlock()
	}
	return n
}

// SetHandler implements network.Fabric: it records the delivery callback
// for dst and interposes the protocol's frame processor on the inner
// fabric.
func (f *Fabric) SetHandler(dst int, h network.Handler) {
	f.handlers[dst].Store(&h)
	f.inner.SetHandler(dst, func(src int, frame []byte) {
		f.onFrame(src, dst, frame)
	})
}

// SendProbe transmits an unreliable, out-of-band probe frame from src
// to dst, bypassing the down-peer gate, the retransmission window and
// the receiver's dedup state entirely. The membership layer uses probes
// for SWIM ping-req relays and for rejoin solicitation across a healed
// partition — exactly the moments the data plane still considers the
// peer dead. The payload is copied into the frame; the caller retains
// ownership. Delivery is best-effort: a lost probe is re-sent by the
// caller's own cadence, not by this layer.
func (f *Fabric) SendProbe(src, dst int, payload []byte) error {
	if f.closed.Load() {
		return network.ErrClosed
	}
	if src < 0 || src >= len(f.handlers) || dst < 0 || dst >= len(f.handlers) {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", network.ErrBadLocality, src, dst, len(f.handlers))
	}
	return f.inner.Send(src, dst, encodeFrame(kindProbe, 0, 0, 0, 0, payload))
}

// SetProbeHandler installs the probe delivery callback for dst (nil
// removes it). The handler receives a pooled copy it owns and must
// eventually release via network.PutPayload (directly or through a
// decoder that takes ownership).
func (f *Fabric) SetProbeHandler(dst int, h func(src int, payload []byte)) {
	if dst < 0 || dst >= len(f.probeHandlers) {
		return
	}
	if h == nil {
		f.probeHandlers[dst].Store(nil)
		return
	}
	f.probeHandlers[dst].Store(&h)
}

func (f *Fabric) txFor(src, dst int) *txState {
	key := linkKey{src, dst}
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := f.tx[key]
	if ts == nil {
		ts = &txState{next: 1, epoch: f.baseEpoch}
		f.tx[key] = ts
	}
	return ts
}

func (f *Fabric) rxFor(src, dst int) *rxState {
	key := linkKey{src, dst}
	f.mu.Lock()
	defer f.mu.Unlock()
	rs := f.rx[key]
	if rs == nil {
		rs = &rxState{reorder: make(map[uint64][]byte)}
		f.rx[key] = rs
	}
	return rs
}

// cumAck returns the cumulative ACK to piggyback on a frame from local
// to remote — the highest in-order sequence local has delivered on the
// reverse (remote->local) link — together with the session epoch that
// sequence belongs to, so the remote can discard the ACK if it has
// since restarted the link. Piggybacking also cancels any pending
// standalone ACK for that link.
func (f *Fabric) cumAck(local, remote int) (uint64, uint32) {
	f.mu.Lock()
	rs := f.rx[linkKey{remote, local}]
	f.mu.Unlock()
	if rs == nil {
		return 0, 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.ackPending = false
	return rs.delivered, rs.epoch
}

// encodeFrame builds a wire frame in a pooled buffer. payload may be nil
// (ACK frames).
func encodeFrame(kind byte, seq, ack uint64, epoch, ackEpoch uint32, payload []byte) []byte {
	frame := network.GetPayload(headerBytes + len(payload))
	frame[0] = frameMagic
	frame[1] = kind
	binary.LittleEndian.PutUint64(frame[2:10], seq)
	binary.LittleEndian.PutUint64(frame[10:18], ack)
	binary.LittleEndian.PutUint32(frame[18:22], epoch)
	binary.LittleEndian.PutUint32(frame[22:26], ackEpoch)
	copy(frame[headerBytes:], payload)
	return frame
}

// jittered spreads d over [1-Jitter/2, 1+Jitter/2] x d.
func (f *Fabric) jittered(d time.Duration) time.Duration {
	f.rngMu.Lock()
	r := f.rng.Float64()
	f.rngMu.Unlock()
	scale := 1 - f.cfg.Jitter/2 + f.cfg.Jitter*r
	return time.Duration(float64(d) * scale)
}

// Send implements network.Fabric. The payload is assigned the link's next
// sequence number, retained for retransmission, and framed onto the inner
// fabric. Send returns nil once the frame is committed to the
// retransmission window — delivery is then guaranteed unless the link's
// retry budget is exhausted, in which case this and subsequent Sends
// return ErrLinkDown (wrapping network.ErrLinkDown). On error the caller
// retains payload ownership, per the Fabric contract.
func (f *Fabric) Send(src, dst int, payload []byte) error {
	if f.closed.Load() {
		return network.ErrClosed
	}
	if src < 0 || src >= len(f.handlers) || dst < 0 || dst >= len(f.handlers) {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", network.ErrBadLocality, src, dst, len(f.handlers))
	}
	if f.downPeers[dst].Load() {
		return fmt.Errorf("%w: locality %d", network.ErrLocalityDown, dst)
	}
	if f.downPeers[src].Load() {
		return fmt.Errorf("%w: locality %d", network.ErrLocalityDown, src)
	}
	ts := f.txFor(src, dst)
	// Read the piggyback ack before taking the link lock: cumAck locks
	// the reverse-direction rx state, and nesting that under ts.mu would
	// invert the lock order other paths use. A slightly stale cumulative
	// ack is a no-op at the receiver.
	ack, ackEpoch := f.cumAck(src, dst)
	ts.mu.Lock()
	if ts.down {
		ts.mu.Unlock()
		return fmt.Errorf("%w: %d->%d retry budget exhausted", network.ErrLinkDown, src, dst)
	}
	seq := ts.next
	ts.next++
	rto := f.jittered(f.cfg.RTO)
	ts.q = append(ts.q, txEntry{
		seq:       seq,
		payload:   payload,
		attempts:  1,
		rto:       f.cfg.RTO,
		nextRetry: time.Now().Add(rto),
	})
	// Encode while still holding the lock: the moment the entry is in
	// the window, FailPeer or retry-budget exhaustion may recycle
	// payload back to the pool.
	frame := encodeFrame(kindData, seq, ack, ts.epoch, ackEpoch, payload)
	ts.mu.Unlock()

	// An inner-fabric send error (e.g. a TCP connection reset) is a
	// transient loss: the frame stays in the window and the scanner
	// retransmits it after the RTO.
	_ = f.inner.Send(src, dst, frame)
	return nil
}

// onFrame processes one frame arriving at locality dst from locality src,
// on the inner fabric's delivery goroutine.
func (f *Fabric) onFrame(src, dst int, frame []byte) {
	if f.closed.Load() || len(frame) < headerBytes || frame[0] != frameMagic {
		network.PutPayload(frame)
		return
	}
	kind := frame[1]
	seq := binary.LittleEndian.Uint64(frame[2:10])
	ack := binary.LittleEndian.Uint64(frame[10:18])
	epoch := binary.LittleEndian.Uint32(frame[18:22])
	ackEpoch := binary.LittleEndian.Uint32(frame[22:26])

	// Probe frames bypass the reliability machinery entirely: no ACK
	// processing, no dedup, no reorder — straight to the probe handler,
	// which owns the pooled copy it receives.
	if kind == kindProbe {
		if php := f.probeHandlers[dst].Load(); php != nil {
			cp := network.GetPayload(len(frame) - headerBytes)
			copy(cp, frame[headerBytes:])
			(*php)(src, cp)
		}
		network.PutPayload(frame)
		return
	}

	// The ACK (piggybacked or standalone) acknowledges data this
	// locality sent to src.
	f.handleAck(dst, src, ack, ackEpoch)
	if kind != kindData {
		network.PutPayload(frame)
		return
	}

	rs := f.rxFor(src, dst)
	rs.mu.Lock()
	if epoch != rs.epoch {
		if epoch < rs.epoch {
			// A pre-partition retransmit from a session the sender has
			// since abandoned: dropping it (rather than deduping or
			// delivering) is the whole point of the epoch field.
			f.staleEpochs.Inc()
			rs.mu.Unlock()
			network.PutPayload(frame)
			return
		}
		// A newer epoch: the sender restarted this link (ReopenPeer
		// after a healed partition, or a process restart). Reset the
		// resequencer so the new session's seq 1 delivers instead of
		// being suppressed as a duplicate of the old stream.
		for s, b := range rs.reorder {
			network.PutPayload(b)
			delete(rs.reorder, s)
		}
		rs.delivered = 0
		rs.epoch = epoch
	}
	switch {
	case seq <= rs.delivered:
		// Already delivered: a retransmission racing a lost ACK (or an
		// injected duplicate). Suppress, but re-arm the ACK so the
		// sender stops retransmitting.
		f.dupSuppressed.Inc()
		f.armAckLocked(rs)
	case seq == rs.delivered+1:
		f.deliverLocked(rs, src, dst, frame[headerBytes:])
		f.armAckLocked(rs)
	default:
		// A gap: buffer out-of-order frames up to the window; beyond it
		// the frame is dropped and redelivered by retransmission.
		if _, dup := rs.reorder[seq]; dup {
			f.dupSuppressed.Inc()
		} else if len(rs.reorder) < f.cfg.Window {
			cp := network.GetPayload(len(frame) - headerBytes)
			copy(cp, frame[headerBytes:])
			rs.reorder[seq] = cp
		}
		f.armAckLocked(rs)
	}
	rs.mu.Unlock()
	network.PutPayload(frame)
}

// deliverLocked hands the in-order payload to the installed handler and
// drains any now-consecutive frames from the reorder buffer. Called with
// rs.mu held, which serializes per-link delivery and preserves order.
func (f *Fabric) deliverLocked(rs *rxState, src, dst int, payload []byte) {
	hp := f.handlers[dst].Load()
	emit := func(b []byte) {
		if hp != nil {
			(*hp)(src, b)
		} else {
			network.PutPayload(b)
		}
	}
	// The handler assumes ownership, so it gets its own pooled copy —
	// the frame buffer is recycled by the caller. This copy is also what
	// makes the layer transparent to the port's borrowed decode: parcels
	// decoded downstream borrow from cp, whose lifetime ends only at the
	// bundle's last Release, never from the reliability frame, which may
	// be recycled (or retransmitted into) while those borrows are live.
	cp := network.GetPayload(len(payload))
	copy(cp, payload)
	emit(cp)
	rs.delivered++
	for {
		b, ok := rs.reorder[rs.delivered+1]
		if !ok {
			return
		}
		delete(rs.reorder, rs.delivered+1)
		emit(b)
		rs.delivered++
	}
}

// armAckLocked schedules a standalone ACK unless one is already pending;
// reverse-direction data frames piggyback sooner and cancel it.
func (f *Fabric) armAckLocked(rs *rxState) {
	if !rs.ackPending {
		rs.ackPending = true
		rs.ackBy = time.Now().Add(f.cfg.AckDelay)
	}
}

// handleAck releases acknowledged frames from the local->remote window,
// provided the ACK names the window's current session epoch — an ACK
// from a pre-partition session must not release frames of the fresh one.
func (f *Fabric) handleAck(local, remote int, ack uint64, ackEpoch uint32) {
	if ack == 0 {
		return
	}
	f.mu.Lock()
	ts := f.tx[linkKey{local, remote}]
	f.mu.Unlock()
	if ts == nil {
		return
	}
	ts.mu.Lock()
	if ackEpoch != ts.epoch {
		f.staleEpochs.Inc()
		ts.mu.Unlock()
		return
	}
	for len(ts.q) > 0 && ts.q[0].seq <= ack {
		network.PutPayload(ts.q[0].payload)
		ts.q[0].payload = nil
		ts.q = ts.q[1:]
	}
	if len(ts.q) == 0 {
		ts.q = nil // release the sliced-away backing array
	}
	ts.mu.Unlock()
}

// run is the scanner goroutine: every Tick it retransmits overdue frames
// (declaring links down when the retry budget runs out) and sends
// standalone ACKs whose delay expired.
func (f *Fabric) run() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case now := <-ticker.C:
			f.sweep(now)
		}
	}
}

// outFrame is a frame prepared under a link lock and sent outside it.
type outFrame struct {
	src, dst int
	frame    []byte
}

func (f *Fabric) sweep(now time.Time) {
	f.mu.Lock()
	txLinks := make(map[linkKey]*txState, len(f.tx))
	for k, ts := range f.tx {
		txLinks[k] = ts
	}
	rxLinks := make(map[linkKey]*rxState, len(f.rx))
	for k, rs := range f.rx {
		rxLinks[k] = rs
	}
	f.mu.Unlock()

	var resend []outFrame
	var downLinks []linkKey
	for key, ts := range txLinks {
		ts.mu.Lock()
		if ts.down {
			ts.mu.Unlock()
			continue
		}
		exhausted := false
		for i := range ts.q {
			e := &ts.q[i]
			if now.Before(e.nextRetry) {
				continue
			}
			if e.attempts > f.cfg.MaxRetries {
				exhausted = true
				break
			}
			e.attempts++
			e.rto = time.Duration(float64(e.rto) * f.cfg.RTOBackoff)
			if e.rto > f.cfg.RTOMax {
				e.rto = f.cfg.RTOMax
			}
			e.nextRetry = now.Add(f.jittered(e.rto))
			f.retransmits.Inc()
			f.cfg.Trace.Record(trace.Event{
				Kind: trace.KindRetransmit, Name: "retransmit",
				Locality: key.src, Start: now, Arg: int64(e.seq),
			})
			resend = append(resend, outFrame{
				src: key.src, dst: key.dst,
				frame: encodeFrame(kindData, e.seq, 0, ts.epoch, 0, e.payload),
			})
		}
		if exhausted {
			// Retry budget exhausted: declare the link down and discard
			// the window — senders see ErrLinkDown instead of hanging.
			ts.down = true
			for i := range ts.q {
				network.PutPayload(ts.q[i].payload)
				ts.q[i].payload = nil
			}
			ts.q = nil
			f.linkDowns.Inc()
			f.cfg.Trace.Record(trace.Event{
				Kind: trace.KindLinkDown, Name: "link-down",
				Locality: key.src, Start: now, Arg: int64(key.dst),
			})
			// Surface the declaration at the receiving locality too: in a
			// real deployment dst's reliability layer reaches the same
			// verdict from its own silence; in-process the shared fabric
			// records both ends so asymmetric partitions are observable
			// from either side.
			f.linkDownsRem.Inc()
			f.cfg.Trace.Record(trace.Event{
				Kind: trace.KindLinkDown, Name: "link-down-remote",
				Locality: key.dst, Start: now, Arg: int64(key.src),
			})
			downLinks = append(downLinks, key)
		}
		ts.mu.Unlock()
	}
	for _, of := range resend {
		_ = f.inner.Send(of.src, of.dst, of.frame)
	}
	if cb := f.onLinkDown.Load(); cb != nil {
		for _, key := range downLinks {
			(*cb)(key.src, key.dst)
		}
	}

	for key, rs := range rxLinks {
		rs.mu.Lock()
		due := rs.ackPending && now.After(rs.ackBy)
		var ack uint64
		var ackEpoch uint32
		if due {
			rs.ackPending = false
			ack = rs.delivered
			ackEpoch = rs.epoch
		}
		rs.mu.Unlock()
		if due {
			// The rx key is (remote src -> local dst); the ACK travels
			// the reverse link.
			_ = f.inner.Send(key.dst, key.src, encodeFrame(kindAck, 0, ack, 0, ackEpoch, nil))
			f.acks.Inc()
		}
	}
}

// Close implements network.Fabric: it stops the scanner, closes the inner
// fabric, and recycles every retained buffer. In-flight messages may or
// may not have been delivered.
func (f *Fabric) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	close(f.stop)
	f.wg.Wait()
	err := f.inner.Close()
	f.mu.Lock()
	tx, rx := f.tx, f.rx
	f.tx, f.rx = map[linkKey]*txState{}, map[linkKey]*rxState{}
	f.mu.Unlock()
	for _, ts := range tx {
		ts.mu.Lock()
		for i := range ts.q {
			network.PutPayload(ts.q[i].payload)
			ts.q[i].payload = nil
		}
		ts.q = nil
		ts.mu.Unlock()
	}
	for _, rs := range rx {
		rs.mu.Lock()
		for seq, b := range rs.reorder {
			network.PutPayload(b)
			delete(rs.reorder, seq)
		}
		rs.mu.Unlock()
	}
	return err
}
