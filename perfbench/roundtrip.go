package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/coalescing"
	"repro/internal/lco"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// roundtrip_tcp: the paper's Listing 1 over the in-process loopback
// TCPFabric. Locality 0 issues bursts of Async echo calls to locality 1
// and waits for each whole burst. Nothing is modelled, so the rate is
// set by the real software path: encode, framing, socket, read loop,
// decode, dispatch and future completion.

const (
	echoAction  = "perfbench/echo"
	rtBurst     = 1024
	rtArgBytes  = 16
	rtWarmCalls = 4 * rtBurst
	rtWindow    = time.Second
	rtCallWait  = 10 * time.Second // a burst not back by then counts as failed
)

var rtCoalescing = coalescing.Params{NParcels: 16, Interval: 200 * time.Microsecond}

type roundtrip struct {
	rt   *runtime.Runtime
	fab  *network.TCPFabric
	rng  *rand.Rand
	next uint64 // call index, part of every payload

	args   []byte // rtBurst payloads of rtArgBytes
	starts []time.Time
	ends   []time.Time
	futs   []*lco.Future[[]byte]

	waitAll  []float64  // ms per burst
	sendCall *reservoir // µs per Async call, traced windows only
}

func newRoundtrip(seed int64, buf *trace.Buffer) (instance, error) {
	fab, err := network.NewTCPFabric(2)
	if err != nil {
		return nil, fmt.Errorf("tcp fabric: %w", err)
	}
	rt := runtime.New(runtime.Config{Localities: 2, WorkersPerLocality: 1, Fabric: fab, Trace: buf})
	w := &roundtrip{
		rt: rt, fab: fab, rng: rand.New(rand.NewSource(seed)),
		args:     make([]byte, rtBurst*rtArgBytes),
		starts:   make([]time.Time, rtBurst),
		ends:     make([]time.Time, rtBurst),
		futs:     make([]*lco.Future[[]byte], rtBurst),
		sendCall: newReservoir(sampleCap, seed),
	}
	rt.MustRegisterAction(echoAction, func(_ *runtime.Context, args []byte) ([]byte, error) { return args, nil })
	if err := rt.EnableCoalescing(echoAction, rtCoalescing); err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < rtWarmCalls/rtBurst; i++ {
		if _, failed := w.burst(nil, nil); failed > 0 {
			w.close()
			return nil, fmt.Errorf("warm-up burst: %d of %d calls failed", failed, rtBurst)
		}
	}
	return w, nil
}

func (w *roundtrip) runtime() *runtime.Runtime { return w.rt }

func (w *roundtrip) close() {
	w.rt.Shutdown()
	_ = w.fab.Close()
}

// burst issues rtBurst echo calls, waits for all of them and checks
// every reply against its request. It returns the per-call latencies
// (µs) of a fully successful burst and the number of failed calls.
func (w *roundtrip) burst(lat []float64, tr *tracer) ([]float64, int64) {
	start := time.Now()
	lc := layerClock{}
	for i := 0; i < rtBurst; i++ {
		a := w.args[i*rtArgBytes : (i+1)*rtArgBytes]
		binary.LittleEndian.PutUint64(a, w.next)
		binary.LittleEndian.PutUint64(a[8:], w.rng.Uint64())
		w.next++
	}
	var left atomic.Int64
	left.Store(rtBurst)
	hooksDone := make(chan struct{})
	issued := 0
	for i := 0; i < rtBurst; i++ {
		t0 := time.Now()
		f, err := w.rt.Locality(0).Async(1, echoAction, w.args[i*rtArgBytes:(i+1)*rtArgBytes])
		if tr.on() {
			d := time.Since(t0)
			lc["runtime"] += d
			w.sendCall.add(float64(d) / float64(time.Microsecond))
		}
		if err != nil {
			break
		}
		w.starts[i] = t0
		w.futs[i] = f
		issued++
		f.OnReady(func([]byte, error) {
			w.ends[i] = time.Now()
			if left.Add(-1) == 0 {
				close(hooksDone)
			}
		})
	}
	failed := int64(rtBurst - issued)
	if issued < rtBurst && left.Add(int64(issued-rtBurst)) == 0 {
		close(hooksDone)
	}

	// WhenAll + one deadline bounds the wait with a single timer;
	// WaitAllTimeout would arm one timer per future.
	t0 := time.Now()
	_, waitErr := lco.WhenAll(w.futs[:issued]).GetWithTimeout(rtCallWait)
	wait := time.Since(t0)
	w.waitAll = append(w.waitAll, float64(wait)/float64(time.Millisecond))
	lc["lco"] += wait
	if waitErr == nil {
		<-hooksDone
	}
	for i := 0; i < issued; i++ {
		f := w.futs[i]
		if !f.Ready() {
			failed++
			continue
		}
		if v, err := f.Get(); err != nil || !bytes.Equal(v, w.args[i*rtArgBytes:(i+1)*rtArgBytes]) {
			failed++
		}
	}
	if failed == 0 {
		for i := 0; i < rtBurst; i++ {
			lat = append(lat, float64(w.ends[i].Sub(w.starts[i]))/float64(time.Microsecond))
		}
	}
	tr.flush(start, lc)
	return lat, failed
}

func (w *roundtrip) window(tr *tracer) outcome {
	var o outcome
	start := time.Now()
	for time.Since(start) < rtWindow {
		var failed int64
		o.lat, failed = w.burst(o.lat, tr)
		o.attempted += rtBurst
		o.failed += failed
		if failed > 0 {
			o.err = fmt.Errorf("%d of %d calls in a burst failed", failed, rtBurst)
			break
		}
	}
	o.wall = time.Since(start)
	o.calls = o.attempted - o.failed
	return o
}

func (w *roundtrip) layers() map[string]float64 {
	m := map[string]float64{"lco.waitall_ms": median(w.waitAll)}
	sendLayers(m, w.sendCall)
	w.waitAll = w.waitAll[:0]
	return m
}
