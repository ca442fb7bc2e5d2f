package main

import (
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/taskbench"
	"repro/internal/trace"
)

// phases_adaptive: Task Bench graphs in repeating phases of stencil_1d,
// random and spread on one runtime, starting uncoalesced under a live
// MultiTuner. The stencil phase is bound by the scheduler and dataflow
// and sends few parcels; random and spread are bound by parcels, so the
// tuner has to re-converge at every switch. One measurement window is
// one round of all three phases, so every window has the same mix.

type phaseSpec struct {
	pattern taskbench.Pattern
	width   int
}

var (
	phaseOrder = []phaseSpec{
		{taskbench.Stencil1D, 256},
		{taskbench.Random, 64},
		{taskbench.Spread, 64},
	}
	phaseInitial = coalescing.Params{NParcels: 1, Interval: 200 * time.Microsecond}
	phaseTuner   = adaptive.MultiTunerConfig{SampleInterval: 10 * time.Millisecond}
)

const (
	phaseGrain        = 256
	phaseSteps        = 8
	phaseGraphs       = 12 // graphs per phase before the pattern switches
	phaseGraphTimeout = 10 * time.Second
)

type phases struct {
	rt    *runtime.Runtime
	bench *taskbench.Bench
	tuner *adaptive.MultiTuner
	seed  int64
	n     int64 // graphs run so far; varies the Random seed per graph

	decisions int64
	wall      map[taskbench.Pattern][]float64 // ms per graph
	nparcels  map[taskbench.Pattern][]float64 // NParcels toward locality 1 at each phase end
}

func newPhases(seed int64, buf *trace.Buffer) (instance, error) {
	rt := runtime.New(runtime.Config{
		Localities: 2, WorkersPerLocality: 1,
		CostModel: network.DefaultCostModel(), Trace: buf,
	})
	w := &phases{rt: rt, seed: seed}
	b, err := taskbench.New(rt, taskbench.Options{Timeout: phaseGraphTimeout})
	if err != nil {
		w.close()
		return nil, err
	}
	w.bench = b
	if err := rt.EnableCoalescing(b.ActionName(), phaseInitial); err != nil {
		w.close()
		return nil, err
	}
	w.tuner = adaptive.NewMultiTuner(rt, b.ActionName(), phaseTuner)
	w.tuner.Start()
	for _, ps := range phaseOrder {
		if _, err := w.graph(ps); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", ps.pattern, err)
		}
	}
	w.layers()
	return w, nil
}

func (w *phases) runtime() *runtime.Runtime { return w.rt }

func (w *phases) close() {
	if w.tuner != nil {
		w.tuner.Stop()
	}
	w.rt.Shutdown()
}

// graph runs one graph of the phase's pattern and checks that every
// task executed.
func (w *phases) graph(ps phaseSpec) (taskbench.Result, error) {
	g := taskbench.Graph{
		Width: ps.width, Steps: phaseSteps, Pattern: ps.pattern,
		Iterations: phaseGrain, Seed: w.seed*1000003 + w.n + 1,
	}
	w.n++
	res, err := w.bench.Run(g)
	if err != nil {
		return res, err
	}
	if res.Tasks != int64(g.TotalTasks()) {
		return res, fmt.Errorf("%s executed %d of %d tasks", g, res.Tasks, g.TotalTasks())
	}
	return res, nil
}

func (w *phases) window(tr *tracer) outcome {
	var o outcome
	start := time.Now()
	for _, ps := range phaseOrder {
		for k := 0; k < phaseGraphs; k++ {
			t0 := time.Now()
			res, err := w.graph(ps)
			tasks := int64(ps.width * phaseSteps)
			o.attempted += tasks
			if err != nil {
				o.failed += tasks - min(res.Tasks, tasks)
				o.err = err
				o.wall = time.Since(start)
				return o
			}
			tr.flush(t0, layerClock{"taskbench": time.Since(t0)})
			o.lat = append(o.lat, float64(res.Wall)/float64(time.Microsecond))
			w.wall[ps.pattern] = append(w.wall[ps.pattern], float64(res.Wall)/float64(time.Millisecond))
			o.graphTasks += res.Tasks
		}
		if p, _, err := w.rt.CoalescingParamsDest(w.bench.ActionName(), 1); err == nil {
			w.nparcels[ps.pattern] = append(w.nparcels[ps.pattern], float64(p.NParcels))
		}
	}
	o.wall = time.Since(start)
	o.calls = -1
	if err := w.tuner.Err(); err != nil {
		o.err = fmt.Errorf("tuner: %w", err)
	}
	return o
}

func (w *phases) layers() map[string]float64 {
	count := w.tuner.DecisionCount()
	m := map[string]float64{"adaptive.decisions": float64(count - w.decisions)}
	for _, ps := range phaseOrder {
		m["taskbench."+string(ps.pattern)+"_ms"] = median(w.wall[ps.pattern])
		m["adaptive.nparcels_at_phase_end."+string(ps.pattern)] = median(w.nparcels[ps.pattern])
	}
	w.decisions = count
	w.wall = map[taskbench.Pattern][]float64{}
	w.nparcels = map[taskbench.Pattern][]float64{}
	return m
}
