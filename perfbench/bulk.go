package main

import (
	"fmt"
	"runtime"
	"time"

	"nshd/internal/engine"
	"nshd/internal/tensor"
)

const (
	// bulkBatch is the offline batch size; it spans 8 engine chunks, so
	// chunk pipelining over the worker pool is exercised.
	bulkBatch = 256
	// bulkVariants distinct batch orders a run cycles through.
	bulkVariants = 4
	bulkLimit    = time.Second
)

// runBulk is bulk-int8: offline Engine.PredictInto over 256-image batches
// with an int8 engine calibrated on the training split.
func runBulk(r *run) error {
	var sp setupParts
	var calib *tensor.Tensor
	st, setupS, err := timedSetup(func() (*stack, error) {
		return sp.buildStack(edgeModel, r.seed, func(f *fixture) []engine.Option {
			calib = f.train.Images
			return []engine.Option{engine.Int8, engine.WithCalibration(calib)}
		})
	}, func(*stack) {})
	if err != nil {
		return err
	}
	ref, err := referencePreds(st.f, engine.Int8, engine.WithCalibration(calib), engine.WithUnfusedExtract())
	if err != nil {
		return err
	}

	// Batches are seeded permutations of the input pool, built before
	// timing, each with its reference answers.
	rng := tensor.NewRNG(r.seed + 3)
	s := st.f.test.Images.Shape
	n := st.f.sampleLen()
	batches := make([]*tensor.Tensor, bulkVariants)
	want := make([][]int, bulkVariants)
	for v := range batches {
		perm := rng.Perm(inputPool)
		x := tensor.New(bulkBatch, s[1], s[2], s[3])
		want[v] = make([]int, bulkBatch)
		for i := 0; i < bulkBatch; i++ {
			idx := perm[i%inputPool]
			copy(x.Data[i*n:(i+1)*n], st.f.image(idx))
			want[v][i] = ref[idx]
		}
		batches[v] = x
	}
	preds := make([]int, bulkBatch)
	check := func(got, want []int) error {
		for i := range got {
			if got[i] != want[i] {
				return errWrong
			}
		}
		return nil
	}
	next := 0
	call := func() (time.Duration, error) {
		v := next % bulkVariants
		next++
		t0 := time.Now()
		if err := st.e.PredictInto(batches[v], preds); err != nil {
			return time.Since(t0), err
		}
		lat := time.Since(t0)
		return lat, check(preds, want[v])
	}
	for end := time.Now().Add(warmup); time.Now().Before(end); {
		if _, err := call(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	settle()

	loop := func(share float64) (*recorder, time.Time) {
		rc := newRecorder(bulkLimit)
		end := r.deadline(share)
		for time.Now().Before(end) {
			lat, err := call()
			r.count(err)
			rc.add(time.Now(), lat, bulkBatch, err)
		}
		return rc, end
	}

	if !r.traced {
		rc, end := loop(1)
		r.set("setup_s", setupS)
		if err := r.setEndToEnd(rc, end); err != nil {
			return err
		}
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(st)
		return nil
	}

	rt0 := readRuntime()
	rc, _ := loop(0.5)
	lats := rc.lats()
	r.setRuntimeDelta(rt0, readRuntime(), int64(len(lats)*bulkBatch))
	untraced := median(append([]float64(nil), lats...))
	r.setTail(lats)

	// Traced phase: TimeStages(x, 1) replaces the predict call. It runs one
	// engine chunk, so the request is one chunk here. Its answers are
	// checked with an untraced PredictInto of the same chunk, which is also
	// the baseline for the tracing overhead.
	chunk := st.e.ChunkSize()
	ss := newStageSamples()
	cpreds := make([]int, chunk)
	var tracedUs, plainUs []float64
	end := r.deadline(0.35)
	for v := 0; time.Now().Before(end); v = (v + 1) % bulkVariants {
		x := tensor.FromSlice(batches[v].Data[:chunk*n], chunk, s[1], s[2], s[3])
		t0 := time.Now()
		rows, err := st.e.TimeStages(x, 1)
		if err != nil {
			return err
		}
		t1 := time.Now()
		traceStages(r.tr, t0, t1, rows)
		ss.add(rows)
		err = st.e.PredictInto(x, cpreds)
		t2 := time.Now()
		tracedUs = append(tracedUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		plainUs = append(plainUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
		if err == nil {
			err = check(cpreds, want[v][:chunk])
		}
		r.count(err)
	}
	pk := r.probeKernels(st.f.p, chunk, r.seed)
	r.setStageMetrics(ss, st.f.p.Costs(), chunk, pk, true)
	// A call runs bulkBatch/chunk chunks over the worker pool.
	perCall := median(ss.sum) * float64(bulkBatch/chunk) / float64(runtime.GOMAXPROCS(0))
	r.set("engine.overhead_us", untraced-perCall)
	r.set("trace.overhead_us", median(tracedUs)-median(plainUs))
	r.setEngineFacts(st.e.ModelBytes(), st.e.ArenaBytes(), st.e)
	sp.report(r)
	r.setFailShare()
	return nil
}
