package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"nshd/internal/serve"
	"nshd/internal/tensor"
)

// arrival is one open-loop request: when it is due, relative to the start
// of its rung, and which pool image it sends.
type arrival struct {
	at  time.Duration
	img int
}

// schedule draws counts[i] Poisson arrivals at rates[i] from the seed. A
// Poisson process conditioned on its count in a window places its arrivals
// uniformly in the window, so each rung is counts[i] sorted uniform times
// over exactly counts[i]/rates[i] seconds: every seed offers the same load.
func schedule(seed int64, rates, counts []int) [][]arrival {
	rng := tensor.NewRNG(seed)
	out := make([][]arrival, len(rates))
	for i, rate := range rates {
		span := float64(counts[i]) / float64(rate)
		at := make([]float64, counts[i])
		for j := range at {
			at[j] = rng.Float64() * span
		}
		sort.Float64s(at)
		out[i] = make([]arrival, counts[i])
		for j := range out[i] {
			out[i][j] = arrival{at: time.Duration(at[j] * 1e9), img: rng.Intn(inputPool)}
		}
	}
	return out
}

const (
	// onlineLimit is the latency limit a request must meet to count toward
	// goodput. A rung passes when at least onlinePass of the requests sent
	// meet it and the median latency of its last fifth does too (no
	// growing backlog).
	onlineLimit = 100 * time.Millisecond
	onlinePass  = 0.9
	// onlineRounds is how many times a run climbs the ladder. Each
	// end-to-end figure is the median over rounds, so one disturbed rung
	// does not move it.
	onlineRounds = 6
	// onlineTopRung is how long the saturating top rung lasts.
	onlineTopRung = time.Second
)

// rungResult is what one rung of the ladder measured.
type rungResult struct {
	rate    int
	lat     []float64 // µs from due time to answer, per request
	errs    []error
	lag     []float64 // µs the generator sent each request late
	start   time.Time
	lastEnd time.Time // when the last answer arrived
}

// dur is the rung's wall time in seconds, from its start to its last
// answer.
func (g *rungResult) dur() float64 { return g.lastEnd.Sub(g.start).Seconds() }

// ok counts answers that were correct and within the limit.
func (g *rungResult) ok() int {
	n := 0
	for i, l := range g.lat {
		if g.errs[i] == nil && l <= float64(onlineLimit.Microseconds()) {
			n++
		}
	}
	return n
}

func (g *rungResult) passes() bool {
	n := len(g.lat)
	tail := append([]float64(nil), g.lat[n-n/5:]...)
	return float64(g.ok()) >= onlinePass*float64(n) && median(tail) <= float64(onlineLimit.Microseconds())
}

// answered returns the latencies of correct answers.
func (g *rungResult) answered() []float64 {
	var out []float64
	for i, l := range g.lat {
		if g.errs[i] == nil {
			out = append(out, l)
		}
	}
	return out
}

// openLoop sends one rung's arrivals, each from its own goroutine as an
// independent user, and waits for every answer. Requests are timed from
// their due time, so a generator stall is charged to the requests it
// delays.
func openLoop(b *serve.Batcher, f *fixture, ref []int, rate int, arr []arrival, tr *tracer) *rungResult {
	g := &rungResult{rate: rate, lat: make([]float64, len(arr)), errs: make([]error, len(arr)), lag: make([]float64, len(arr))}
	var wg sync.WaitGroup
	var mu sync.Mutex
	g.start = time.Now().Add(time.Millisecond)
	for i, a := range arr {
		due := g.start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		g.lag[i] = float64(sent.Sub(due).Nanoseconds()) / 1e3
		wg.Add(1)
		go func(i int, img int, due, sent time.Time) {
			defer wg.Done()
			pred, err := b.Predict(context.Background(), f.image(img))
			done := time.Now()
			if err == nil && pred != ref[img] {
				err = errWrong
			}
			g.lat[i] = float64(done.Sub(due).Nanoseconds()) / 1e3
			g.errs[i] = err
			mu.Lock()
			if done.After(g.lastEnd) {
				g.lastEnd = done
			}
			mu.Unlock()
			if tr != nil {
				id := tr.newID()
				tr.add(id, "gen.lag", due, sent)
				tr.record(id, 0, "request", due, done)
			}
		}(i, a.img, due, sent)
	}
	wg.Wait()
	return g
}

// ladderRuns are the rounds of one phase: rungs[round][rung].
type ladderRuns struct {
	rungs    [][]*rungResult
	sent     int
	answered int
}

// rungCounts sizes one round of round seconds. The top rung lasts
// onlineTopRung, long enough for its backlog to pass the latency limit; the
// rungs below share the rest with equal request counts, so each rung's
// percentiles rest on the same number of samples.
func rungCounts(round float64) []int {
	top := len(ladder) - 1
	var perReq float64
	for _, rate := range ladder[:top] {
		perReq += 1 / float64(rate)
	}
	n := max(1, int((round-onlineTopRung.Seconds())/perReq))
	counts := make([]int, len(ladder))
	for i := range counts {
		counts[i] = n
	}
	counts[top] = int(float64(ladder[top]) * onlineTopRung.Seconds())
	return counts
}

// runLadder climbs the ladder rounds times in share of the run.
func runLadder(r *run, b *serve.Batcher, f *fixture, ref []int, share float64, rounds int, seedOff int64, tr *tracer) *ladderRuns {
	counts := rungCounts(share * r.seconds / float64(rounds))
	lr := &ladderRuns{}
	for round := 0; round < rounds; round++ {
		sched := schedule(r.seed*1000+seedOff+int64(round), ladder, counts)
		var row []*rungResult
		for i, rate := range ladder {
			g := openLoop(b, f, ref, rate, sched[i], tr)
			for _, err := range g.errs {
				r.count(err)
				if err == nil {
					lr.answered++
				}
			}
			lr.sent += len(sched[i])
			row = append(row, g)
		}
		lr.rungs = append(lr.rungs, row)
	}
	return lr
}

// perRound applies fn to every round and returns the median.
func (lr *ladderRuns) perRound(fn func(row []*rungResult) float64) float64 {
	var v []float64
	for _, row := range lr.rungs {
		v = append(v, fn(row))
	}
	return median(v)
}

// rungPercentile is the median over rounds of rung i's q-quantile, and
// whether every round had minTail samples beyond it.
func (lr *ladderRuns) rungPercentile(i int, q float64) (float64, bool) {
	all := true
	v := lr.perRound(func(row []*rungResult) float64 {
		p, ok := percentile(row[i].answered(), q)
		all = all && ok
		return p
	})
	return v, all
}

// goodput is, per round, the rate of correct answers within the limit at
// the highest rung that passes (0 if none does); the median over rounds.
func (lr *ladderRuns) goodput() float64 {
	return lr.perRound(func(row []*rungResult) float64 {
		for i := len(row) - 1; i >= 0; i-- {
			if row[i].passes() {
				return float64(row[i].ok()) / row[i].dur()
			}
		}
		return 0
	})
}

// peakRate is the answer rate over the top rung, which offers more than the
// batcher can serve: images per second from the rung's start to its last
// answer; the median over rounds.
func (lr *ladderRuns) peakRate() float64 {
	return lr.perRound(func(row []*rungResult) float64 {
		g := row[len(row)-1]
		return float64(len(g.answered())) / g.dur()
	})
}

// runOnline is online-open: Poisson users calling Batcher.Predict at each
// rate of the ladder in turn.
func runOnline(r *run) error {
	var sp setupParts
	type online struct {
		st *stack
		b  *serve.Batcher
	}
	// The admission queue holds a whole rung, so overload shows as a
	// growing backlog (latency), not as refusals.
	queueCap := int(float64(ladder[len(ladder)-1]) * r.seconds)
	o, setupS, err := timedSetup(func() (online, error) {
		st, err := sp.buildStack(edgeModel, r.seed, nil)
		if err != nil {
			return online{}, err
		}
		b, err := serve.New(st.e, serve.Options{QueueCap: queueCap})
		return online{st, b}, err
	}, func(o online) { o.b.Close() })
	if err != nil {
		return err
	}
	defer o.b.Close()
	f := o.st.f
	ref, err := referencePreds(f, floatRef...)
	if err != nil {
		return err
	}
	warm := &run{seed: r.seed, seconds: warmup.Seconds()}
	runLadder(warm, o.b, f, ref, 1, 1, 900, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	settle()

	if !r.traced {
		lr := runLadder(r, o.b, f, ref, 1, onlineRounds, 0, nil)
		r.set("setup_s", setupS)
		p50, ok := lr.rungPercentile(0, 0.50)
		if !ok {
			return fmt.Errorf("too few requests per rung for a median in %.1fs", r.seconds)
		}
		r.set("latency_p50_us", p50)
		r.set("throughput_ips", lr.peakRate())
		r.set("goodput_rps", lr.goodput())
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(o)
		return nil
	}

	s0, rt0 := o.b.Stats(), readRuntime()
	// Two long rounds, so every rung's p90 has minTail samples beyond it.
	lr := runLadder(r, o.b, f, ref, 0.5, 2, 0, nil)
	s1 := o.b.Stats()
	r.setRuntimeDelta(rt0, readRuntime(), int64(lr.answered))
	var lags, light []float64
	for i, rate := range ladder {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}} {
			v, ok := lr.rungPercentile(i, q.q)
			if !ok {
				v = 0
			}
			r.set(fmt.Sprintf("online.latency_%s_us.r%d", q.name, rate), v)
		}
	}
	for _, row := range lr.rungs {
		light = append(light, row[0].answered()...)
		for _, g := range row {
			lags = append(lags, g.lag...)
		}
	}
	untraced, _ := lr.rungPercentile(0, 0.5)
	r.setTail(light)
	lagP99, ok := percentile(lags, 0.99)
	if !ok {
		lagP99 = 0
	}
	r.set("gen.lag_p99_us", lagP99)
	r.set("gen.sent", float64(lr.sent))
	r.set("gen.completed", float64(lr.answered))
	flushes := s1.Batches - s0.Batches
	r.set("batcher.flushes", float64(flushes))
	meanBatch := 0.0
	if flushes > 0 {
		meanBatch = float64(s1.Served-s0.Served) / float64(flushes)
	}
	r.set("batcher.mean_batch", meanBatch)
	r.set("batcher.refused", float64(s1.Rejected-s0.Rejected))
	r.set("batcher.canceled", float64(s1.Canceled-s0.Canceled))
	admitted := (s1.Requests - s0.Requests) - (s1.Rejected - s0.Rejected)
	if admitted > 0 {
		r.set("batcher.served_share", float64(s1.Served-s0.Served)/float64(admitted))
	} else {
		r.set("batcher.served_share", 0)
	}

	// Traced pass over the ladder: a request span from due time to answer,
	// with the generator's lateness as its child.
	traced := runLadder(r, o.b, f, ref, 0.3, 2, 500, r.tr)
	tracedP50, _ := traced.rungPercentile(0, 0.5)

	// Stage split at the batch size the batcher formed.
	batch := max(1, min(int(math.Round(meanBatch)), o.st.e.ChunkSize()))
	ss := newStageSamples()
	x := f.images(0, batch)
	end := r.deadline(0.05)
	for time.Now().Before(end) || len(ss.sum) < 20 {
		rows, err := o.st.e.TimeStages(x, 1)
		if err != nil {
			return err
		}
		ss.add(rows)
	}
	pk := r.probeKernels(f.p, batch, r.seed)
	r.setStageMetrics(ss, f.p.Costs(), batch, pk, false)
	r.set("engine.overhead_us", untraced-median(ss.sum))
	r.set("trace.overhead_us", tracedP50-untraced)
	r.setEngineFacts(o.st.e.ModelBytes(), o.st.e.ArenaBytes(), o.st.e)
	sp.report(r)
	r.setFailShare()
	return nil
}
