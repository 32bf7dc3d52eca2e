package main

import (
	"fmt"
	"sync"
	"time"
)

// Rates are taken per time window and the median over windows is reported.
// Windows are short, about windowRequests requests each, so the median
// window holds none of the stalls that other load on the host puts into
// the tail; the tail is reported on its own (tail.latency_p90_us,
// tail.latency_p99_us). A phase has at least minWindows windows.
const (
	windowRequests = 10
	minWindows     = 5
)

// sample is one finished request.
type sample struct {
	end    time.Time
	lat    float64 // µs
	images int     // images answered correctly
	good   bool    // answered correctly within the workload's latency limit
}

// recorder collects a timed phase's samples; safe for concurrent use.
type recorder struct {
	limit time.Duration
	start time.Time
	mu    sync.Mutex
	s     []sample
}

func newRecorder(limit time.Duration) *recorder {
	return &recorder{limit: limit, start: time.Now()}
}

// add records a request that ended at end after lat, answering images
// images; err is its outcome.
func (rc *recorder) add(end time.Time, lat time.Duration, images int, err error) {
	s := sample{end: end, lat: float64(lat.Nanoseconds()) / 1e3}
	if err == nil {
		s.images = images
		s.good = lat <= rc.limit
	}
	rc.mu.Lock()
	rc.s = append(rc.s, s)
	rc.mu.Unlock()
}

// lats returns every sample's latency in µs.
func (rc *recorder) lats() []float64 {
	out := make([]float64, len(rc.s))
	for i, s := range rc.s {
		out[i] = s.lat
	}
	return out
}

// images counts the images a phase answered correctly.
func (rc *recorder) images() int {
	n := 0
	for _, s := range rc.s {
		n += s.images
	}
	return n
}

// rates returns the median over windows of the phase from start to end of
// images answered correctly per second and of requests answered correctly
// within the limit per second. A request counts toward each window in
// proportion to the part of its lifetime that falls in the window, so a
// window's rate is not rounded to whole requests.
func (rc *recorder) rates(end time.Time) (imagesPerS, goodPerS float64) {
	n := max(len(rc.s)/windowRequests, minWindows)
	phase := end.Sub(rc.start).Seconds()
	span := phase / float64(n)
	images := make([]float64, n)
	good := make([]float64, n)
	for _, s := range rc.s {
		hi := min(s.end.Sub(rc.start).Seconds(), phase)
		lo := max(hi-s.lat/1e6, 0)
		if hi <= lo {
			continue
		}
		for w := int(lo / span); w < n && float64(w)*span < hi; w++ {
			share := (min(hi, float64(w+1)*span) - max(lo, float64(w)*span)) / (hi - lo)
			images[w] += share * float64(s.images)
			if s.good {
				good[w] += share
			}
		}
	}
	for w := range images {
		images[w] /= span
		good[w] /= span
	}
	return median(images), median(good)
}

// setEndToEnd reports a closed-loop phase's end-to-end metrics: the median
// request latency and the windowed rates.
func (r *run) setEndToEnd(rc *recorder, end time.Time) error {
	p50, ok := percentile(rc.lats(), 0.50)
	if !ok {
		return fmt.Errorf("%d requests are too few for a median", len(rc.s))
	}
	ips, gps := rc.rates(end)
	r.set("latency_p50_us", p50)
	r.set("throughput_ips", ips)
	r.set("goodput_rps", gps)
	return nil
}
