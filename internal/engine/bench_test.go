package engine_test

import (
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// benchSetup mirrors the perf harness: mobilenetv2 prefix, paper-scale D.
func benchSetup(b *testing.B, packed bool) (*core.Pipeline, *engine.Engine, *tensor.Tensor) {
	b.Helper()
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 10, Train: 256, Test: 8, Size: 32, Noise: 0.2, Seed: 21,
	})
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(22), 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(5, 10)
	cfg.Seed = 23
	cfg.PackedInference = packed
	p, err := core.New(zoo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	e, err := engine.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	return p, e, train.Images
}

func BenchmarkEnginePredict(b *testing.B) {
	_, e, imgs := benchSetup(b, false)
	preds := make([]int, imgs.Shape[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictInto(imgs, preds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePredictBatch1 is the single-request latency shape of the
// edge-b1 workload (bash perfbench/run.sh --workload edge-b1): vgg16 prefix,
// batch 1, fused tail.
func BenchmarkEnginePredictBatch1(b *testing.B) {
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 10, Train: 64, Test: 8, Size: 32, Noise: 0.2, Seed: 71,
	})
	zoo, err := cnn.Build("vgg16", tensor.NewRNG(72), 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(8, 10)
	cfg.Seed = 73
	cfg.D = 3000
	cfg.FHat = 100
	p, err := core.New(zoo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	e, err := engine.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	sample := train.Images.Len() / train.Images.Shape[0]
	img := tensor.FromSlice(train.Images.Data[:sample], 1,
		train.Images.Shape[1], train.Images.Shape[2], train.Images.Shape[3])
	preds := make([]int, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictInto(img, preds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineDirectPredict(b *testing.B) {
	p, _, imgs := benchSetup(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictDirect(imgs)
	}
}
