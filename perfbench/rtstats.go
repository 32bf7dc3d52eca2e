package main

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	s []metrics.Sample
}

const (
	rtPauses = "/gc/pauses:seconds"
	rtSched  = "/sched/latencies:seconds"
	rtAllocs = "/gc/heap/allocs:objects"
	rtCycles = "/gc/cycles/total:gc-cycles"
	rtLive   = "/gc/heap/live:bytes"
)

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: rtPauses}, {Name: rtSched}, {Name: rtAllocs}, {Name: rtCycles}}
	metrics.Read(s)
	return rtSample{s}
}

// setRuntimeDelta reports what the runtime did between a and b, with
// images served in that interval. Histogram percentiles without minTail
// samples beyond them read 0.
func (r *run) setRuntimeDelta(a, b rtSample, images int64) {
	r.set("runtime.gc_pause_p99_us", histP99(a.s[0].Value.Float64Histogram(), b.s[0].Value.Float64Histogram())*1e6)
	r.set("runtime.sched_lat_p99_us", histP99(a.s[1].Value.Float64Histogram(), b.s[1].Value.Float64Histogram())*1e6)
	allocs := float64(b.s[2].Value.Uint64() - a.s[2].Value.Uint64())
	if images > 0 {
		r.set("runtime.allocs_per_image", allocs/float64(images))
	} else {
		r.set("runtime.allocs_per_image", 0)
	}
	r.set("runtime.gc_cycles", float64(b.s[3].Value.Uint64()-a.s[3].Value.Uint64()))
}

// histP99 is the upper edge of the bucket holding the 99th percentile of
// the observations b added over a, or 0 when fewer than minTail
// observations lie above that bucket.
func histP99(a, b *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want && c > 0 {
			if total-cum < minTail {
				return 0
			}
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

// settle collects the set-up's garbage before a timed phase, so the
// collector does not run on the phase's time to free what set-up left.
func settle() { runtime.GC() }

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: rtLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
