package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/fft"
	"repro/internal/coalescing"
	"repro/internal/collectives"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// fft2d: a 2-D FFT split over two localities, whose transposes are
// direct all-to-all exchanges. Each locality's part is far above the
// default cost model's 32 KiB eager threshold, so every exchange takes
// the rendezvous path: the one workload where bytes, not message count,
// dominate. Every transform is checked bit-exact against fft.Reference.

const (
	fftRows, fftCols = 256, 256
	fftWindow        = time.Second
	fftOpTimeout     = 20 * time.Second
)

var fftCoalescing = coalescing.Params{NParcels: 4, Interval: 100 * time.Microsecond}

type fft2d struct {
	rt    *runtime.Runtime
	comm  *collectives.Comm
	cfg   fft.Config
	ref   [][]complex128
	refMS float64
	n     int
}

func newFFT2D(seed int64, buf *trace.Buffer) (instance, error) {
	rt := runtime.New(runtime.Config{
		Localities: 2, WorkersPerLocality: 1,
		CostModel: network.DefaultCostModel(), Trace: buf,
	})
	w := &fft2d{rt: rt, cfg: fft.Config{Rows: fftRows, Cols: fftCols, Seed: uint64(seed)}}
	comm, err := collectives.NewComm(rt, "perfbench-fft", collectives.Options{
		Algorithm: collectives.AlgDirect, Timeout: fftOpTimeout,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.comm = comm
	if err := rt.EnableCoalescing(collectives.Action, fftCoalescing); err != nil {
		w.close()
		return nil, err
	}
	t0 := time.Now()
	w.ref = fft.Reference(w.cfg)
	w.refMS = float64(time.Since(t0)) / float64(time.Millisecond)
	blocks, err := w.transform()
	if err == nil {
		err = w.verify(blocks)
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up transform: %w", err)
	}
	return w, nil
}

func (w *fft2d) runtime() *runtime.Runtime { return w.rt }

func (w *fft2d) close() {
	if w.comm != nil {
		w.comm.Close()
	}
	w.rt.Shutdown()
}

// transform runs one distributed transform, one goroutine per locality,
// and returns each locality's output rows.
func (w *fft2d) transform() ([][][]complex128, error) {
	L := w.rt.Localities()
	tag := fmt.Sprintf("t%d", w.n)
	w.n++
	blocks := make([][][]complex128, L)
	errs := make([]error, L)
	var wg sync.WaitGroup
	for l := 0; l < L; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			blocks[l], errs[l] = fft.Distributed(w.comm, l, w.cfg, tag)
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// verify checks every output row bit-exact against the reference.
func (w *fft2d) verify(blocks [][][]complex128) error {
	for l, rows := range blocks {
		lo, _ := fft.Range(w.cfg.Rows, len(blocks), l)
		if err := fft.VerifyRows(w.ref, lo, rows); err != nil {
			return err
		}
	}
	return nil
}

func (w *fft2d) window(tr *tracer) outcome {
	var o outcome
	start := time.Now()
	for time.Since(start) < fftWindow {
		t0 := time.Now()
		blocks, err := w.transform()
		dur := time.Since(t0)
		if err == nil {
			err = w.verify(blocks)
		}
		o.attempted++
		if err != nil {
			o.failed++
			o.err = err
			break
		}
		tr.flush(t0, layerClock{"fft": dur})
		o.lat = append(o.lat, float64(dur)/float64(time.Microsecond))
	}
	o.wall = time.Since(start)
	o.calls = -1
	return o
}

func (w *fft2d) layers() map[string]float64 {
	return map[string]float64{"fft.reference_ms": w.refMS}
}
