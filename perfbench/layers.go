package main

import (
	"regexp"
	"strings"
	"time"

	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// keptCounters lists the counter names, with the locality instance and
// the @action parameter removed and per-destination indices collapsed to
// dest/*, whose deltas the per-layer metrics are built from. Every one
// is a cumulative count or time, so summing across localities, actions
// and destinations is meaningful; averages and ratios are left out.
var keptCounters = map[string]bool{
	"/parcels/count/received":                true,
	"/parcels/count/rx-dropped":              true,
	"/parcels/count/send-errors":             true,
	"/parcels/count/decode-errors":           true,
	"/parcels/count/link-down":               true,
	"/messages/count/sent":                   true,
	"/data/count/sent-bytes":                 true,
	"/coalescing/count/parcels":              true,
	"/coalescing/count/messages":             true,
	"/coalescing/dest/*/count/queued":        true,
	"/coalescing/dest/*/count/bypass":        true,
	"/coalescing/dest/*/count/flushed-full":  true,
	"/coalescing/dest/*/count/flushed-timer": true,
	"/coalescing/dest/*/count/flushed-bytes": true,
	"/collectives/alltoall/count/ops":        true,
	"/collectives/alltoall/count/bytes":      true,
	"/collectives/alltoall/count/messages":   true,
}

var (
	instanceRE = regexp.MustCompile(`\{[^}]*\}`)
	destRE     = regexp.MustCompile(`/dest/[0-9]+/`)
)

// counterKey maps a full counter path such as
// /coalescing{locality#0}/dest/1/count/queued@echo to its aggregation
// key /coalescing/dest/*/count/queued.
func counterKey(path string) string {
	k := instanceRE.ReplaceAllString(path, "")
	if i := strings.IndexByte(k, '@'); i >= 0 {
		k = k[:i]
	}
	return destRE.ReplaceAllString(k, "/dest/*/")
}

// aggregate sums a registry snapshot across localities, actions and
// destinations, keeping only keptCounters.
func aggregate(snap map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(keptCounters))
	for path, v := range snap {
		if k := counterKey(path); keptCounters[k] {
			out[k] += v
		}
	}
	return out
}

// layerSnap is one reading of every source the per-layer metrics are
// differenced from: the counter tree, the schedulers, the fabric and
// the collectives all-to-all timing.
type layerSnap struct {
	counters map[string]float64
	sched    runtime.SchedStats
	fabric   network.Stats
	// a2aSumUS is Σ all-to-all completion time over every locality,
	// reconstructed from each locality's running mean and op count.
	a2aSumUS float64
}

func readLayers(rt *runtime.Runtime) layerSnap {
	s := layerSnap{counters: aggregate(rt.Counters().Snapshot()), fabric: rt.Fabric().Stats()}
	for i := 0; i < rt.Localities(); i++ {
		st := rt.Locality(i).SchedStats()
		s.sched.Tasks += st.Tasks
		s.sched.CumFunc += st.CumFunc
		s.sched.CumExec += st.CumExec
		s.sched.Background += st.Background
	}
	reg := rt.Counters()
	ops, _ := reg.Query("/collectives{*}/alltoall/count/ops@*")
	for _, c := range ops {
		p := c.Path()
		p.Name = "alltoall/time/completion-us"
		if mean, err := reg.Value(p.String()); err == nil {
			s.a2aSumUS += mean * c.Value()
		}
	}
	return s
}

// layerDelta is the difference of two layerSnaps, plus the fabric's
// in-flight messages at the later one.
type layerDelta struct {
	c        map[string]float64
	tasks    int64
	taskDur  time.Duration
	execDur  time.Duration
	bgDur    time.Duration
	fabric   network.Stats
	inflight int64 // fabric messages sent but not yet received at the end
	a2aUS    float64
}

func diffLayers(a, b layerSnap) layerDelta {
	d := layerDelta{
		c:       make(map[string]float64, len(b.counters)),
		tasks:   b.sched.Tasks - a.sched.Tasks,
		taskDur: b.sched.CumFunc - a.sched.CumFunc,
		execDur: b.sched.CumExec - a.sched.CumExec,
		bgDur:   b.sched.Background - a.sched.Background,
		fabric: network.Stats{
			MessagesSent: b.fabric.MessagesSent - a.fabric.MessagesSent,
			BytesSent:    b.fabric.BytesSent - a.fabric.BytesSent,
		},
		inflight: int64(b.fabric.MessagesSent) - int64(b.fabric.MessagesReceived),
		a2aUS:    b.a2aSumUS - a.a2aSumUS,
	}
	for k, v := range b.counters {
		d.c[k] = v - a.counters[k]
	}
	return d
}

// failures is what the parcel layer reports as lost on this segment:
// received-but-dropped messages, failed sends, undecodable bundles and
// parcels refused on a down link.
func (d layerDelta) failures() int64 {
	return int64(d.c["/parcels/count/rx-dropped"] + d.c["/parcels/count/send-errors"] +
		d.c["/parcels/count/decode-errors"] + d.c["/parcels/count/link-down"])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeLayers turns a segment's layer delta into the counter-derived
// per-layer metrics, keyed by the names BENCHMARK.json lists.
func runtimeLayers(d layerDelta) map[string]float64 {
	c := d.c
	busy := d.taskDur + d.bgDur
	timerFlushes := c["/coalescing/dest/*/count/flushed-timer"]
	flushes := timerFlushes + c["/coalescing/dest/*/count/flushed-full"] + c["/coalescing/dest/*/count/flushed-bytes"]
	return map[string]float64{
		"runtime.tasks":            float64(d.tasks),
		"runtime.task_overhead_us": ratio(float64(d.taskDur-d.execDur)/float64(time.Microsecond), float64(d.tasks)),
		"runtime.task_ms":          float64(d.taskDur) / float64(time.Millisecond),
		"runtime.background_ms":    float64(d.bgDur) / float64(time.Millisecond),
		"runtime.network_overhead": ratio(float64(d.bgDur), float64(busy)),

		"coalescing.parcels_per_message": ratio(c["/coalescing/count/parcels"], c["/coalescing/count/messages"]),
		"coalescing.flush_timer_share":   ratio(timerFlushes, flushes),
		"coalescing.unattributed_parcels": c["/coalescing/count/parcels"] -
			c["/coalescing/dest/*/count/queued"] - c["/coalescing/dest/*/count/bypass"],

		"parcel.messages_sent":     c["/messages/count/sent"],
		"parcel.bytes_per_message": ratio(c["/data/count/sent-bytes"], c["/messages/count/sent"]),
		"parcel.rx_dropped":        c["/parcels/count/rx-dropped"],
		"parcel.send_errors":       c["/parcels/count/send-errors"],
		"parcel.decode_errors":     c["/parcels/count/decode-errors"],

		"network.messages":        float64(d.fabric.MessagesSent),
		"network.bytes":           float64(d.fabric.BytesSent),
		"network.inflight_at_end": float64(d.inflight),

		"collectives.alltoall_us":       ratio(d.a2aUS, c["/collectives/alltoall/count/ops"]),
		"collectives.alltoall_bytes":    c["/collectives/alltoall/count/bytes"],
		"collectives.alltoall_messages": c["/collectives/alltoall/count/messages"],
	}
}

// Benchmark-owned tracing. Every operation group (a burst, a paced
// batch, a graph, a transform) is one root span named "bench"; each
// layer the benchmark calls into during it gets one child span carrying
// the same id. Calls made many times per group (Async, Apply, generator
// waits) are folded into one child whose duration is their sum, which
// keeps the ring small enough to hold a whole traced segment. Children
// run on the root's goroutine one after another, so a root's self time
// is its duration minus the sum of its children.

// spanRoot is the name of a root span; selfLayers are the child names.
const spanRoot = "bench"

var selfLayers = []string{"gen", "runtime", "lco", "taskbench", "fft"}

// tracer records spans into a trace.Buffer; a nil tracer records nothing
// and reads no clocks. It is used from one goroutine.
type tracer struct {
	buf    *trace.Buffer
	groups int64 // ids handed out so far
}

func (t *tracer) on() bool { return t != nil }

func (t *tracer) span(id int64, name string, start time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	t.buf.Record(trace.Event{Kind: trace.KindPhase, Name: name, Start: start, Duration: d, Arg: id})
}

// layerClock accumulates one group's time per child layer.
type layerClock map[string]time.Duration

// flush writes one group's root span, which started at start, and its
// child spans under a fresh id.
func (t *tracer) flush(start time.Time, lc layerClock) {
	if t == nil {
		return
	}
	id := t.groups
	t.groups++
	for _, name := range selfLayers {
		t.span(id, name, start, lc[name])
	}
	t.span(id, spanRoot, start, time.Since(start))
}

// selfTimes returns each layer's mean self time per root span, in ms,
// over the groups whose root survived in the ring.
func selfTimes(buf *trace.Buffer) map[string]float64 {
	type group struct {
		root     time.Duration
		hasRoot  bool
		children map[string]time.Duration
	}
	groups := map[int64]*group{}
	for _, e := range buf.Events(trace.KindPhase) {
		g := groups[e.Arg]
		if g == nil {
			g = &group{children: map[string]time.Duration{}}
			groups[e.Arg] = g
		}
		if e.Name == spanRoot {
			g.root, g.hasRoot = e.Duration, true
		} else {
			g.children[e.Name] += e.Duration
		}
	}
	out := map[string]float64{}
	var roots float64
	for _, g := range groups {
		if g.hasRoot {
			roots++
		}
	}
	for _, g := range groups {
		if !g.hasRoot {
			continue
		}
		self := g.root
		for name, d := range g.children {
			self -= d
			out["self_ms."+name] += float64(d) / float64(time.Millisecond) / roots
		}
		out["self_ms."+spanRoot] += float64(self) / float64(time.Millisecond) / roots
	}
	return out
}
