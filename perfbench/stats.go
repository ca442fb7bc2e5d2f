package main

import (
	"math/rand"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks, or 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// sampleCap bounds every sample set the benchmark keeps.
const sampleCap = 1 << 18

// reservoir keeps a uniform random sample of at most cap(buf) values
// (Vitter's algorithm R). Its memory is fixed at construction, so a
// faster system under test does not grow the benchmark's own footprint
// and move peak_rss_mb.
type reservoir struct {
	buf  []float64
	seen int64
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{buf: make([]float64, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, x)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(len(r.buf)) {
		r.buf[j] = x
	}
}

func (r *reservoir) reset() {
	r.buf = r.buf[:0]
	r.seen = 0
}

// dist summarises a sample set as the percentiles the report uses.
type dist struct{ p50, p99 float64 }

func (r *reservoir) dist() dist {
	s := sortedCopy(r.buf)
	return dist{p50: quantile(s, 0.5), p99: quantile(s, 0.99)}
}
