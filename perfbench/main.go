// Command perfbench is the repository benchmark: four workloads on an
// in-process two-locality runtime (one scheduler worker per locality),
// each measured from outside through the runtime's public API, with its
// output checked. See NOTES.md for why each workload exists and which
// per-layer metric should move which end-to-end metric.
//
//	go run . --workload roundtrip_tcp --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is split into an untraced
// and a traced half and the metrics are the per-layer ones. The line
// before it is the full report: host record, workload parameters, every
// metric with its unit and sample count, and the counter deltas.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/runtime"
	"repro/internal/timer"
	"repro/internal/trace"
)

// outcome is what one workload observed over one measurement window.
type outcome struct {
	wall              time.Duration
	attempted, failed int64
	// calls counts completed application calls; -1 means every remote
	// parcel of the workload is one, so the port counters give it.
	calls int64
	// graphTasks counts Task Bench graph tasks; 0 for workloads without
	// task graphs, where every runtime task is an application task.
	graphTasks int64
	lat        []float64 // per-operation latencies, µs
	err        error
}

// instance is one workload set up on its own runtime.
type instance interface {
	runtime() *runtime.Runtime
	// window runs one measurement window; tr is nil when untraced.
	window(tr *tracer) outcome
	// layers returns the workload's own per-layer values over the
	// windows since the previous call.
	layers() map[string]float64
	close()
}

type spec struct {
	build func(seed int64, buf *trace.Buffer) (instance, error)
	// probeEvery is the period of the benchmark-owned timer on
	// rt.Timers(): the workload's coalescing flush interval.
	probeEvery time.Duration
	// headline is the end-to-end metric trace.overhead_ratio compares.
	headline string
	// op names the unit latency_p50_us and latency_p99_us time.
	op     string
	params map[string]any
}

var workloads = map[string]spec{
	"roundtrip_tcp": {
		build: newRoundtrip, probeEvery: rtCoalescing.Interval, headline: "calls_per_s",
		op: "echo call, Async issue to future ready",
		params: map[string]any{
			"fabric": "tcp-loopback", "burst_calls": rtBurst, "arg_bytes": rtArgBytes,
			"coalescing_nparcels": rtCoalescing.NParcels, "coalescing_interval_us": rtCoalescing.Interval.Microseconds(),
			"warmup_calls": rtWarmCalls,
		},
	},
	"paced_sim": {
		build: newPaced, probeEvery: pacedCoalescing.Interval, headline: "latency_p50_us",
		op: "parcel, due time to handler start",
		params: map[string]any{
			"fabric": "sim-default-cost", "loop": "open", "arrivals": "poisson", "rate_per_s": pacedRate,
			"arg_bytes": pacedArgBytes, "coalescing_nparcels": pacedCoalescing.NParcels,
			"coalescing_interval_us": pacedCoalescing.Interval.Microseconds(), "warmup_ms": pacedWarmup.Milliseconds(),
		},
	},
	"phases_adaptive": {
		build: newPhases, probeEvery: phaseInitial.Interval, headline: "tasks_per_s",
		op: "task graph",
		params: map[string]any{
			"fabric": "sim-default-cost", "phases": "stencil_1d w=256, random w=64, spread w=64",
			"steps": phaseSteps, "grain_iterations": phaseGrain, "graphs_per_phase": phaseGraphs,
			"initial_nparcels": phaseInitial.NParcels, "tuner": "MultiTuner",
			"tuner_sample_interval_ms": phaseTuner.SampleInterval.Milliseconds(),
		},
	},
	"fft2d": {
		build: newFFT2D, probeEvery: fftCoalescing.Interval, headline: "latency_p50_us",
		op: "verified 2-D transform",
		params: map[string]any{
			"fabric": "sim-default-cost", "rows": fftRows, "cols": fftCols, "alltoall": "direct",
			"coalescing_nparcels": fftCoalescing.NParcels, "coalescing_interval_us": fftCoalescing.Interval.Microseconds(),
		},
	},
}

// Units of the metrics BENCHMARK.json lists.
var (
	endToEndUnits = map[string]string{
		"calls_per_s": "1/s", "tasks_per_s": "1/s", "latency_p50_us": "us",
		"setup_s": "s", "peak_rss_mb": "MiB",
	}
	perLayerUnits = map[string]string{
		"runtime.send_call_us.p50": "us",
		"runtime.send_call_us.p99": "us",
		"runtime.task_overhead_us": "us",
		"runtime.tasks":            "count",
		"runtime.task_ms":          "ms",
		"runtime.background_ms":    "ms",
		"runtime.network_overhead": "ratio",

		"coalescing.parcels_per_message":  "ratio",
		"coalescing.flush_timer_share":    "ratio",
		"coalescing.unattributed_parcels": "count",

		"timer.fire_late_us.p50": "us",
		"timer.fire_late_us.p99": "us",

		"parcel.messages_sent":     "count",
		"parcel.bytes_per_message": "bytes",
		"parcel.rx_dropped":        "count",
		"parcel.send_errors":       "count",
		"parcel.decode_errors":     "count",

		"network.messages":        "count",
		"network.bytes":           "bytes",
		"network.inflight_at_end": "count",

		"lco.waitall_ms": "ms",

		"taskbench.stencil_1d_ms": "ms",
		"taskbench.random_ms":     "ms",
		"taskbench.spread_ms":     "ms",

		"adaptive.decisions":                        "count",
		"adaptive.nparcels_at_phase_end.stencil_1d": "count",
		"adaptive.nparcels_at_phase_end.random":     "count",
		"adaptive.nparcels_at_phase_end.spread":     "count",

		"collectives.alltoall_us":       "us",
		"collectives.alltoall_bytes":    "bytes",
		"collectives.alltoall_messages": "count",

		"fft.reference_ms": "ms",

		"gen.late_us.p50": "us",
		"gen.late_us.p99": "us",

		"self_ms.bench":     "ms",
		"self_ms.gen":       "ms",
		"self_ms.runtime":   "ms",
		"self_ms.lco":       "ms",
		"self_ms.taskbench": "ms",
		"self_ms.fft":       "ms",

		"trace.overhead_ratio": "ratio",
		"failed_ratio":         "ratio",
	}
)

const (
	// setupRepeats: set-up is timed this many times per run and its
	// median reported; the last instance is the one measured.
	setupRepeats = 5
	// traceRing is the per-kind capacity of the trace buffer: enough to
	// keep every benchmark span of a traced half.
	traceRing = 1 << 15
)

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", "", "with --trace 1, write trace_<workload>.json (Chrome trace) here")
	repro := flag.String("repro", "", "run a known-defect reproduction instead (rx_drop)")
	flag.Parse()

	var err error
	switch {
	case *repro == "rx_drop":
		err = reproRxDrop()
	case *repro != "":
		err = fmt.Errorf("unknown reproduction %q", *repro)
	default:
		err = runBench(*workload, *seed, *seconds, *traced, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// segment is one measured stretch of a workload: a run of windows, the
// layer deltas over all of them and the workload's own layer values.
type segment struct {
	windows           []window
	wall              time.Duration
	attempted, failed int64
	err               error
	d                 layerDelta
	layers            map[string]float64
	timer             dist
}

// window is one measurement window's rate and latency metrics.
type window struct {
	// steal is the share of CPU time the hypervisor gave to other guests
	// during the window, or -1 if unknown.
	steal   float64
	metrics map[string]float64
	samples int64
}

// measure runs windows of inst until d has passed, stopping early at
// the first window with a failure.
func measure(inst instance, d time.Duration, tr *tracer, probeEvery time.Duration) segment {
	rt := inst.runtime()
	inst.layers() // drop what set-up recorded
	var s segment
	var probe *timerProbe
	if tr.on() {
		probe = startTimerProbe(rt.Timers(), probeEvery)
	}
	first := readLayers(rt)
	prev := first
	start := time.Now()
	for time.Since(start) < d {
		steal := stealShare()
		o := inst.window(tr)
		cur := readLayers(rt)
		s.add(o, diffLayers(prev, cur), steal())
		prev = cur
		if o.err != nil || o.failed > 0 {
			break
		}
	}
	s.wall = time.Since(start)
	if probe != nil {
		s.timer = probe.stop()
	}
	s.d = diffLayers(first, prev)
	s.layers = inst.layers()
	return s
}

func (s *segment) add(o outcome, wd layerDelta, steal float64) {
	s.attempted += o.attempted
	s.failed += o.failed
	if o.err != nil && s.err == nil {
		s.err = o.err
	}
	calls := float64(o.calls)
	if o.calls < 0 {
		calls = wd.c["/parcels/count/received"]
	}
	tasks := float64(o.graphTasks)
	if tasks == 0 {
		tasks = float64(wd.tasks)
	}
	lat := sortedCopy(o.lat)
	secs := o.wall.Seconds()
	s.windows = append(s.windows, window{
		steal: steal,
		metrics: map[string]float64{
			"calls_per_s":    ratio(calls, secs),
			"tasks_per_s":    ratio(tasks, secs),
			"latency_p50_us": quantile(lat, 0.5),
			"latency_p99_us": quantile(lat, 0.99),
		},
		samples: int64(len(lat)),
	})
}

// quiet returns the windows no more disturbed by other guests than the
// median window: at least half of them, and all of them when the host
// took nothing or /proc/stat cannot tell. On a shared host other guests
// take CPU in bursts of seconds; the windows they hit measure the host,
// not the program.
func (s segment) quiet() []window {
	var steals []float64
	for _, w := range s.windows {
		if w.steal < 0 {
			return s.windows
		}
		steals = append(steals, w.steal)
	}
	limit := median(steals)
	var out []window
	for _, w := range s.windows {
		if w.steal <= limit {
			out = append(out, w)
		}
	}
	return out
}

// endToEnd returns the rate and latency metrics, each the median over
// the quiet windows, so neither a short disturbance nor the host's
// busiest seconds move it, and the number of latencies behind them.
func (s segment) endToEnd() (map[string]float64, int64) {
	quiet := s.quiet()
	m := map[string]float64{}
	for _, k := range []string{"calls_per_s", "tasks_per_s", "latency_p50_us", "latency_p99_us"} {
		var v []float64
		for _, w := range quiet {
			v = append(v, w.metrics[k])
		}
		m[k] = median(v)
	}
	var samples int64
	for _, w := range quiet {
		samples += w.samples
	}
	return m, samples
}

func (s segment) correct() bool {
	return s.err == nil && s.failed == 0 && s.d.failures() == 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportMetric is a metric in the report line, with its sample count.
type reportMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func runBench(name string, seed int64, seconds, traced int, traceDir string) error {
	sp, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || traced < 0 || traced > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	d := time.Duration(seconds) * time.Second
	report := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"host": readHost(), "params": sp.params, "latency_op": sp.op,
	}
	steal := stealShare()
	var out summary
	var err error
	if traced == 0 {
		out, err = untracedRun(sp, seed, d, report)
	} else {
		var buf *trace.Buffer
		out, buf, err = tracedRun(sp, seed, d, report)
		if err == nil && traceDir != "" {
			err = writeTrace(buf, filepath.Join(traceDir, "trace_"+name+".json"))
		}
	}
	if err != nil {
		return err
	}
	report["host_steal_share"] = steal()
	report["summary"] = out
	for _, v := range []any{report, out} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func untracedRun(sp spec, seed int64, d time.Duration, report map[string]any) (summary, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			// Collect the discarded runtime now, so the measured run's
			// peak RSS does not depend on when the GC would have.
			inst.close()
			goruntime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = sp.build(seed, nil); err != nil {
			return summary{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s := measure(inst, d, nil, 0)
	inst.close()

	e2e, latSamples := s.endToEnd()
	e2e["setup_s"] = median(setups)
	e2e["peak_rss_mb"] = peakRSSMB()
	quiet := int64(len(s.quiet()))
	samples := map[string]int64{
		"calls_per_s": quiet, "tasks_per_s": quiet,
		"latency_p50_us": latSamples, "latency_p99_us": latSamples,
		"setup_s": setupRepeats, "peak_rss_mb": 1,
	}
	out := summary{Correct: s.correct(), Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricOut{}}
	full := map[string]reportMetric{}
	for k, v := range e2e {
		unit, gated := endToEndUnits[k]
		if !gated {
			// latency_p99_us is reported here only; see NOTES.md.
			unit = "us"
		} else {
			out.Metrics[k] = metricOut{Value: v, Unit: unit}
		}
		full[k] = reportMetric{Value: v, Unit: unit, Samples: samples[k]}
	}
	cores := float64(report["host"].(hostRecord).Cores)
	report["metrics"] = full
	var steals []float64
	for _, w := range s.windows {
		steals = append(steals, w.steal)
	}
	report["window_steal_shares"] = steals
	report["quiet_windows"] = quiet
	report["measured_s"] = s.wall.Seconds()
	report["per_core"] = map[string]float64{"calls_per_s": e2e["calls_per_s"] / cores, "tasks_per_s": e2e["tasks_per_s"] / cores}
	report["runtime_tasks_per_s"] = ratio(float64(s.d.tasks), s.wall.Seconds())
	report["failed_ratio"] = ratio(float64(s.failed), float64(s.attempted))
	report["counters"] = s.d.c
	if s.err != nil {
		report["error"] = s.err.Error()
	}
	return out, nil
}

// tracedRun measures an untraced half and then a traced half, each on
// a fresh runtime, and reports the traced half's per-layer metrics.
func tracedRun(sp spec, seed int64, d time.Duration, report map[string]any) (summary, *trace.Buffer, error) {
	half := d / 2
	u, err := sp.build(seed, nil)
	if err != nil {
		return summary{}, nil, fmt.Errorf("set-up: %w", err)
	}
	su := measure(u, half, nil, 0)
	u.close()

	buf := trace.New(traceRing)
	t, err := sp.build(seed, buf)
	if err != nil {
		return summary{}, nil, fmt.Errorf("traced set-up: %w", err)
	}
	st := measure(t, half, &tracer{buf: buf}, sp.probeEvery)
	t.close()

	layers := runtimeLayers(st.d)
	for k, v := range st.layers {
		layers[k] = v
	}
	for k, v := range selfTimes(buf) {
		layers[k] = v
	}
	layers["timer.fire_late_us.p50"] = st.timer.p50
	layers["timer.fire_late_us.p99"] = st.timer.p99
	attempted := su.attempted + st.attempted
	failed := su.failed + st.failed
	layers["failed_ratio"] = ratio(float64(failed), float64(attempted))
	eu, _ := su.endToEnd()
	et, _ := st.endToEnd()
	if strings.HasPrefix(sp.headline, "latency") {
		layers["trace.overhead_ratio"] = ratio(et[sp.headline], eu[sp.headline])
	} else {
		layers["trace.overhead_ratio"] = ratio(eu[sp.headline], et[sp.headline])
	}

	out := summary{Correct: su.correct() && st.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for k, unit := range perLayerUnits {
		out.Metrics[k] = metricOut{Value: layers[k], Unit: unit}
	}
	report["untraced"] = eu
	report["traced"] = et
	report["trace_dropped_spans"] = buf.Dropped(trace.KindPhase)
	report["counters"] = st.d.c
	for _, s := range []segment{su, st} {
		if s.err != nil {
			report["error"] = s.err.Error()
		}
	}
	return out, buf, nil
}

func writeTrace(buf *trace.Buffer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := buf.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

// sendLayers stores the per-call time spent inside Apply/Async and
// empties the sample set.
func sendLayers(layers map[string]float64, send *reservoir) {
	s := send.dist()
	layers["runtime.send_call_us.p50"] = s.p50
	layers["runtime.send_call_us.p99"] = s.p99
	send.reset()
}

// timerProbe is a benchmark-owned timer on the runtime's timer service,
// re-armed every period, recording how late each firing ran.
type timerProbe struct {
	mu      sync.Mutex
	t       *timer.Timer
	every   time.Duration
	due     time.Time
	late    *reservoir
	stopped bool
}

func startTimerProbe(svc *timer.Service, every time.Duration) *timerProbe {
	p := &timerProbe{every: every, late: newReservoir(sampleCap, 1)}
	p.t = svc.NewTimer(p.fire)
	p.mu.Lock()
	p.due = time.Now().Add(every)
	_ = p.t.StartAt(p.due)
	p.mu.Unlock()
	return p
}

// fire runs on the timer service goroutine with no service lock held,
// so it may re-arm its own timer.
func (p *timerProbe) fire() {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.late.add(float64(now.Sub(p.due)) / float64(time.Microsecond))
	p.due = now.Add(p.every)
	_ = p.t.StartAt(p.due)
}

func (p *timerProbe) stop() dist {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	p.t.Stop()
	return p.late.dist()
}
