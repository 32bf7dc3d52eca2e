package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// stack is one built fixture and its compiled engine.
type stack struct {
	f *fixture
	e *engine.Engine
}

// setupParts collects the set-up time of every build in a run.
type setupParts struct{ fixture, compile []float64 }

// buildStack builds the fixture for m and compiles it with the options
// opts returns for it (nil: none), timing both parts.
func (sp *setupParts) buildStack(m modelSpec, seed int64, opts func(*fixture) []engine.Option) (*stack, error) {
	t0 := time.Now()
	f, err := buildFixture(m, seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var o []engine.Option
	if opts != nil {
		o = opts(f)
	}
	e, err := engine.Compile(f.p, o...)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sp.fixture = append(sp.fixture, t1.Sub(t0).Seconds())
	sp.compile = append(sp.compile, time.Since(t1).Seconds())
	return &stack{f: f, e: e}, nil
}

func (sp *setupParts) report(r *run) {
	r.set("core.fixture_s", median(sp.fixture))
	r.set("engine.compile_s", median(sp.compile))
}

// referencePreds classifies the whole input pool with a separately compiled
// engine on the bit-exact reference paths.
func referencePreds(f *fixture, opts ...engine.Option) ([]int, error) {
	ref, err := engine.Compile(f.p, opts...)
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	return ref.Predict(f.test.Images)
}

// floatRef are the reference paths for a float32 engine.
var floatRef = []engine.Option{engine.WithUnfusedExtract(), engine.WithStagedTail()}

// edgeLimit is edge-b1's latency limit for goodput.
const edgeLimit = 5 * time.Millisecond

// runEdge is edge-b1: one caller, batch-1 PredictInto, closed loop.
func runEdge(r *run) error {
	var sp setupParts
	st, setupS, err := timedSetup(func() (*stack, error) { return sp.buildStack(edgeModel, r.seed, nil) }, func(*stack) {})
	if err != nil {
		return err
	}
	ref, err := referencePreds(st.f, floatRef...)
	if err != nil {
		return err
	}
	order := tensor.NewRNG(r.seed + 3).Perm(inputPool)
	img := st.f.images(0, 1)
	preds := make([]int, 1)
	next := 0
	// call runs one request on the next pool image and returns its latency.
	call := func(run func() error) (time.Duration, error) {
		idx := order[next%len(order)]
		next++
		img.Data = st.f.image(idx)
		t0 := time.Now()
		err := run()
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		if preds[0] != ref[idx] {
			return lat, errWrong
		}
		return lat, nil
	}
	predict := func() error { return st.e.PredictInto(img, preds) }
	for end := time.Now().Add(warmup); time.Now().Before(end); {
		if _, err := call(predict); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	settle()

	// closedLoop runs requests until the phase ends.
	closedLoop := func(share float64, run func() error) (*recorder, time.Time) {
		rc := newRecorder(edgeLimit)
		end := r.deadline(share)
		for time.Now().Before(end) {
			lat, err := call(run)
			r.count(err)
			rc.add(time.Now(), lat, 1, err)
		}
		return rc, end
	}

	if !r.traced {
		rc, end := closedLoop(1, predict)
		r.set("setup_s", setupS)
		if err := r.setEndToEnd(rc, end); err != nil {
			return err
		}
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(st)
		return nil
	}

	rt0 := readRuntime()
	rc, _ := closedLoop(0.5, predict)
	lats := rc.lats()
	r.setRuntimeDelta(rt0, readRuntime(), int64(len(lats)))
	untraced := median(append([]float64(nil), lats...))
	r.setTail(lats)

	// Traced phase: TimeStages(x, 1) replaces the predict call, so each
	// request's stage rows become spans.
	// TimeStages does not return its answer, so an untraced PredictInto of
	// the same image is checked; it is also the tracing overhead's baseline.
	ss := newStageSamples()
	var tracedUs, plainUs []float64
	closedLoop(0.35, func() error {
		t0 := time.Now()
		rows, err := st.e.TimeStages(img, 1)
		if err != nil {
			return err
		}
		t1 := time.Now()
		traceStages(r.tr, t0, t1, rows)
		ss.add(rows)
		err = st.e.PredictInto(img, preds)
		tracedUs = append(tracedUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		plainUs = append(plainUs, float64(time.Since(t1).Nanoseconds())/1e3)
		return err
	})
	pk := r.probeKernels(st.f.p, 1, r.seed)
	r.setStageMetrics(ss, st.f.p.Costs(), 1, pk, false)
	r.set("engine.overhead_us", untraced-median(ss.sum))
	r.set("trace.overhead_us", median(tracedUs)-median(plainUs))
	r.setEngineFacts(st.e.ModelBytes(), st.e.ArenaBytes(), st.e)
	sp.report(r)
	r.setFailShare()
	return nil
}

// count tallies one measured request.
func (r *run) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if errors.Is(err, errWrong) {
			r.wrong++
		}
	}
}

func (r *run) setFailShare() {
	if r.attempted > 0 {
		r.set("fail_share", float64(r.failed)/float64(r.attempted))
	}
}

// setTail reports the 90th and 99th percentiles of lats (µs); each reads 0
// when fewer than minTail samples lie beyond it.
func (r *run) setTail(lats []float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"tail.latency_p90_us", 0.90}, {"tail.latency_p99_us", 0.99}} {
		v, ok := percentile(lats, q.q)
		if !ok {
			v = 0
		}
		r.set(q.name, v)
	}
}
