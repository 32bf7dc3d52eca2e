package main

import (
	"strings"
	"time"

	"nshd/internal/core"
	"nshd/internal/engine"
	"nshd/internal/hdlearn"
	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// stageKey maps an engine stage row to the per-layer stage it reports
// under. Every row after the manifold (projection, classifier, or the fused
// project+classify) is the tail.
func stageKey(name string) string {
	switch name {
	case "extract", "manifold":
		return name
	}
	return "tail"
}

// nnKinds are the extractor unit kinds nn.<kind>_us reports. Kinds, not
// indices, so the metric names survive changes to fusion that regroup the
// extractor's rows.
var nnKinds = []string{"fused", "conv", "act", "pool", "other"}

// unitKind classifies one TimeStages Sub row of the extractor.
func unitKind(name string) string {
	n := strings.ToLower(name)
	switch {
	case strings.Contains(n, "fused"):
		return "fused"
	case strings.Contains(n, "conv"):
		return "conv"
	case strings.Contains(n, "relu"), strings.Contains(n, "sigmoid"), strings.Contains(n, "silu"):
		return "act"
	case strings.Contains(n, "pool"):
		return "pool"
	}
	return "other"
}

// stageSamples collects TimeStages rows over many calls and reports
// per-stage and per-unit-kind medians.
type stageSamples struct {
	stage map[string][]float64 // stage key → µs per call
	unit  map[string][]float64 // unit kind → µs per call
	sum   []float64            // stage sum, µs per call
}

func newStageSamples() *stageSamples {
	return &stageSamples{stage: map[string][]float64{}, unit: map[string][]float64{}}
}

func (s *stageSamples) add(rows []engine.StageTime) {
	stage := map[string]float64{}
	unit := map[string]float64{}
	var sum float64
	for _, row := range rows {
		us := row.Seconds * 1e6
		stage[stageKey(row.Name)] += us
		sum += us
		if stageKey(row.Name) == "extract" {
			for _, sub := range row.Sub {
				unit[unitKind(sub.Name)] += sub.Seconds * 1e6
			}
		}
	}
	for _, k := range []string{"extract", "manifold", "tail"} {
		s.stage[k] = append(s.stage[k], stage[k])
	}
	for _, k := range nnKinds {
		s.unit[k] = append(s.unit[k], unit[k])
	}
	s.sum = append(s.sum, sum)
}

// traceStages records one TimeStages call as spans: a request span from
// start to end, its rows laid back to back from start as stage spans, and
// each row's Sub rows as nn child spans of that stage.
func traceStages(tr *tracer, start, end time.Time, rows []engine.StageTime) {
	req := tr.newID()
	at := start
	for _, row := range rows {
		d := time.Duration(row.Seconds * 1e9)
		id := tr.add(req, "engine."+row.Name, at, at.Add(d))
		sub := at
		for _, s := range row.Sub {
			sd := time.Duration(s.Seconds * 1e9)
			tr.add(id, "nn."+s.Name, sub, sub.Add(sd))
			sub = sub.Add(sd)
		}
		at = at.Add(d)
	}
	tr.record(req, 0, "request", start, end)
}

// setStageMetrics reports the engine stage split, the extractor unit kinds
// and the roofline rows for calls of batch images each, against the
// measured GEMM peaks (float GFLOP/s, int8 GOP/s).
func (r *run) setStageMetrics(s *stageSamples, c core.CostReport, batch int, pk peaks, int8 bool) {
	ext, man, tail := median(s.stage["extract"]), median(s.stage["manifold"]), median(s.stage["tail"])
	r.set("engine.extract_us", ext)
	r.set("engine.manifold_us", man)
	r.set("engine.tail_us", tail)
	for _, k := range nnKinds {
		r.set("nn."+k+"_us", median(s.unit[k]))
	}
	// Achieved rate: 2·MACs per image × images / stage time (µs → GFLOP/s
	// is flops / µs / 1e3).
	rate := func(macs int64, us float64) float64 {
		if us <= 0 {
			return 0
		}
		return 2 * float64(macs) * float64(batch) / us / 1e3
	}
	extRate := rate(c.ExtractorMACs, ext)
	if int8 {
		r.set("quant.extract_gops", extRate)
		r.set("roofline.extract_peak_share", extRate/pk.int8)
	} else {
		r.set("nn.extract_gflops", extRate)
		r.set("roofline.extract_peak_share", extRate/pk.float)
	}
	manRate := rate(c.ManifoldMACs, man)
	tailRate := rate(c.EncodeMACs+c.SimilarityMACs, tail)
	r.set("roofline.manifold_gflops", manRate)
	r.set("roofline.manifold_peak_share", manRate/pk.float)
	r.set("roofline.tail_gflops", tailRate)
	r.set("roofline.tail_peak_share", tailRate/pk.float)
}

// peaks are the measured GEMM rates the roofline rows compare against.
type peaks struct{ float, int8 float64 }

// setEngineFacts reports the engine's exact size and coverage counts.
func (r *run) setEngineFacts(model, arena int64, e *engine.Engine) {
	r.set("engine.model_bytes", float64(model))
	r.set("engine.arena_bytes", float64(arena))
	cov, tot := e.Int8Coverage()
	r.set("quant.int8_covered", float64(cov))
	r.set("quant.int8_total", float64(tot))
}

// probeTime is how long each kernel probe runs.
const probeTime = 150 * time.Millisecond

// medianPerOp times fn in rounds of n calls for probeTime and returns the
// median time of one call in microseconds.
func medianPerOp(n int, fn func()) float64 {
	fn() // first call pays any lazy set-up
	var per []float64
	end := time.Now().Add(probeTime)
	for time.Now().Before(end) || len(per) < 5 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	return median(per)
}

// probeKernels measures the kernels under the engine stages at the
// workload's own shapes: batch rows through projection and scoring of p.
// It returns the GEMM peaks for the roofline rows.
func (r *run) probeKernels(p *core.Pipeline, batch int, seed int64) peaks {
	rng := tensor.NewRNG(seed + 7)
	rand := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		for i := range t.Data {
			t.Data[i] = float32(rng.NormFloat64())
		}
		return t
	}

	const sq = 384
	a, b, c := rand(sq, sq), rand(sq, sq), tensor.New(sq, sq)
	us := medianPerOp(2, func() { tensor.MatMulInto(c, a, b) })
	peak := 2 * sq * sq * sq / us / 1e3
	r.set("tensor.gemm_peak_gflops", peak)

	f, d := p.Proj.F, p.Proj.D
	feat, raw := rand(batch, f), tensor.New(batch, d)
	us = medianPerOp(4, func() { tensor.MatMulInto(raw, feat, p.Proj.P) })
	r.set("tensor.proj_gemm_gflops", 2*float64(batch*f*d)/us/1e3)

	// int8 GEMM at the shape of the edge extractor's widest conv, as the
	// implicit-GEMM conv runs it: out channels × (in channels · 3·3) ×
	// output pixels.
	const m8, k8, n8 = 32, 288, 256
	a8, b8, c8 := make([]int8, m8*k8), make([]uint8, k8*n8), make([]int32, m8*n8)
	for i := range a8 {
		a8[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b8 {
		b8[i] = uint8(rng.Intn(256))
	}
	us = medianPerOp(8, func() { tensor.MatMulInt8Into(c8, a8, b8, m8, n8, k8) })
	peak8 := 2 * m8 * k8 * n8 / us / 1e3
	r.set("tensor.int8_gemm_gops", peak8)

	words := (d + 63) / 64
	x, y := make([]uint64, words), make([]uint64, words)
	for i := range x {
		x[i], y[i] = rng.Uint64(), rng.Uint64()
	}
	var sink int
	us = medianPerOp(256, func() { sink += tensor.XorPopcount(x, y) })
	r.set("tensor.popcount_ns", us*1e3)

	pp := p.Proj.PrepackedPanels()
	hv := tensor.New(batch, d)
	r.set("hdc.encode_us", medianPerOp(4, func() { p.Proj.EncodeBatchPanelsInto(feat, hv, hv, pp) }))

	pm := hdlearn.PackModel(p.HD)
	preds := make([]int, batch)
	q := make([]uint64, pm.WordsPerRow())
	r.set("hdlearn.score_us", medianPerOp(4, func() { pm.PredictBatchInto(hv, preds, q) }))

	// Fork-join cost of the worker pool: an empty For over every worker.
	w := parallel.Workers()
	lat := make([]float64, 0, 4096)
	end := time.Now().Add(probeTime)
	for time.Now().Before(end) || len(lat) < 2000 {
		t0 := time.Now()
		parallel.For(w, func(lo, hi int) {})
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p50, _ := percentile(lat, 0.50)
	p99, _ := percentile(lat, 0.99)
	r.set("parallel.for_p50_us", p50)
	r.set("parallel.for_p99_us", p99)
	_ = sink
	return peaks{float: peak, int8: peak8}
}
