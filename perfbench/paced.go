package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// paced_sim: an open loop of fire-and-forget parcels from locality 0 to
// locality 1 on the simulated fabric with the default cost model.
// Arrivals are Poisson at pacedRate, well below saturation, so latency
// is set by the coalescing wait, the flush timer and the receive path
// rather than by throughput. Each parcel is timed from the moment it
// was due, so a stalled generator shows up as latency, and the
// generator's own lateness is reported beside it.

const (
	sinkAction     = "perfbench/sink"
	pacedRate      = 10000 // parcels per second, mean
	pacedArgBytes  = 16
	pacedBatch     = 64 // parcels per traced root span
	pacedWarmup    = 50 * time.Millisecond
	pacedWindow    = time.Second
	pacedDrainWait = 2 * time.Second
	// pacedSpinBelow: the generator sleeps until this close to a due
	// time, then spins, so sleep granularity does not become latency.
	pacedSpinBelow = 150 * time.Microsecond
)

var pacedCoalescing = coalescing.Params{NParcels: 16, Interval: 200 * time.Microsecond}

type paced struct {
	rt      *runtime.Runtime
	rng     *rand.Rand
	cur     atomic.Pointer[pacedRun]
	genLate *reservoir // µs the generator sent after the due time
	send    *reservoir // µs per Apply call, traced windows only
}

// pacedRun is one window's open-loop schedule and its delivery record.
type pacedRun struct {
	base time.Time
	due  []time.Duration // offsets from base
	tag  []uint64        // per-parcel payload check word
	args []byte          // every parcel's payload; a queued parcel keeps referencing its own
	// got is the delivery record: ns from due time to handler start,
	// plus one, for each parcel; 0 means not delivered.
	got   []atomic.Int64
	dups  atomic.Int64
	bad   atomic.Int64
	count atomic.Int64
}

func newPaced(seed int64, buf *trace.Buffer) (instance, error) {
	rt := runtime.New(runtime.Config{
		Localities: 2, WorkersPerLocality: 1,
		CostModel: network.DefaultCostModel(), Trace: buf,
	})
	w := &paced{
		rt: rt, rng: rand.New(rand.NewSource(seed)),
		genLate: newReservoir(sampleCap, seed), send: newReservoir(sampleCap, seed+1),
	}
	rt.MustRegisterAction(sinkAction, w.sink)
	if err := rt.EnableCoalescing(sinkAction, pacedCoalescing); err != nil {
		w.close()
		return nil, err
	}
	if o := w.openLoop(pacedWarmup, nil); o.failed > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up: %d of %d parcels failed", o.failed, o.attempted)
	}
	return w, nil
}

func (w *paced) runtime() *runtime.Runtime { return w.rt }
func (w *paced) close()                    { w.rt.Shutdown() }

// sink is the parcel handler on locality 1: it checks the payload and
// records the parcel's delivery exactly once.
func (w *paced) sink(_ *runtime.Context, args []byte) ([]byte, error) {
	now := time.Now()
	r := w.cur.Load()
	if r == nil || len(args) != pacedArgBytes {
		return nil, nil
	}
	i := binary.LittleEndian.Uint64(args)
	if i >= uint64(len(r.due)) || binary.LittleEndian.Uint64(args[8:]) != r.tag[i] {
		r.bad.Add(1)
		return nil, nil
	}
	if !r.got[i].CompareAndSwap(0, int64(now.Sub(r.base.Add(r.due[i])))+1) {
		r.dups.Add(1)
		return nil, nil
	}
	r.count.Add(1)
	return nil, nil
}

// schedule draws exponential inter-arrival gaps until d is covered.
func (w *paced) schedule(d time.Duration) *pacedRun {
	r := &pacedRun{}
	for t := time.Duration(0); ; {
		t += time.Duration(w.rng.ExpFloat64() * float64(time.Second) / pacedRate)
		if t >= d {
			break
		}
		r.due = append(r.due, t)
		r.tag = append(r.tag, w.rng.Uint64())
	}
	r.got = make([]atomic.Int64, len(r.due))
	r.args = make([]byte, len(r.due)*pacedArgBytes)
	for i := range r.due {
		a := r.args[i*pacedArgBytes : (i+1)*pacedArgBytes]
		binary.LittleEndian.PutUint64(a, uint64(i))
		binary.LittleEndian.PutUint64(a[8:], r.tag[i])
	}
	return r
}

func (w *paced) window(tr *tracer) outcome { return w.openLoop(pacedWindow, tr) }

// openLoop sends one schedule covering d and waits for its deliveries.
func (w *paced) openLoop(d time.Duration, tr *tracer) outcome {
	r := w.schedule(d)
	n := len(r.due)
	loc := w.rt.Locality(0)
	var o outcome
	o.attempted = int64(n)

	w.cur.Store(r)
	r.base = time.Now().Add(time.Millisecond)
	var lc layerClock
	var rootStart time.Time
	sendFailed := int64(0)
	for i := 0; i < n; i++ {
		if tr.on() && i%pacedBatch == 0 {
			if i > 0 {
				tr.flush(rootStart, lc)
			}
			lc, rootStart = layerClock{}, time.Now()
		}
		due := r.base.Add(r.due[i])
		waitStart := time.Now()
		if wait := time.Until(due); wait > pacedSpinBelow {
			time.Sleep(wait - pacedSpinBelow)
		}
		for time.Now().Before(due) {
		}
		t0 := time.Now()
		w.genLate.add(float64(t0.Sub(due)) / float64(time.Microsecond))
		err := loc.Apply(1, sinkAction, r.args[i*pacedArgBytes:(i+1)*pacedArgBytes])
		if tr.on() {
			sd := time.Since(t0)
			lc["gen"] += t0.Sub(waitStart)
			lc["runtime"] += sd
			w.send.add(float64(sd) / float64(time.Microsecond))
		}
		if err != nil {
			sendFailed++
		}
	}
	if tr.on() && n > 0 {
		tr.flush(rootStart, lc)
	}

	// Drain: stop when every sent parcel arrived, or when the parcel
	// layer reports losses and delivery has stalled, or at the deadline.
	deadline := time.Now().Add(pacedDrainWait)
	want := int64(n) - sendFailed
	last, lastMove := r.count.Load(), time.Now()
	for r.count.Load() < want && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
		if c := r.count.Load(); c != last {
			last, lastMove = c, time.Now()
		} else if time.Since(lastMove) > 100*time.Millisecond && lostParcels(w.rt) > 0 {
			break
		}
	}
	w.cur.Store(nil)
	end := r.base
	o.lat = make([]float64, 0, n)
	for i := range r.got {
		if v := r.got[i].Load(); v > 0 {
			o.lat = append(o.lat, float64(v-1)/float64(time.Microsecond))
			if t := r.base.Add(r.due[i] + time.Duration(v-1)); t.After(end) {
				end = t
			}
		}
	}
	o.wall = end.Sub(r.base)
	o.calls = int64(len(o.lat))
	o.failed = int64(n-len(o.lat)) + r.dups.Load() + r.bad.Load()
	if o.failed > 0 {
		o.err = fmt.Errorf("%d of %d parcels not delivered exactly once with their payload", o.failed, n)
	}
	return o
}

func (w *paced) layers() map[string]float64 {
	g := w.genLate.dist()
	m := map[string]float64{"gen.late_us.p50": g.p50, "gen.late_us.p99": g.p99}
	sendLayers(m, w.send)
	w.genLate.reset()
	return m
}

// lostParcels is the parcel layer's count of traffic it gave up on.
func lostParcels(rt *runtime.Runtime) int64 {
	var n int64
	for i := 0; i < rt.Localities(); i++ {
		s := rt.Locality(i).Port().Stats()
		n += s.RxDropped + s.SendErrors + s.DecodeErrors + s.LinkDown
	}
	return n
}
