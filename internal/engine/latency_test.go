package engine_test

import (
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// TestEngineZeroAllocBatch1 extends the steady-state zero-alloc gate (its
// name keeps it inside the `make alloc` run) to the latency-critical shape:
// a single-sample PredictInto across every tail strategy × both classifier
// kernels. Batch 1 drives the skinny-M GEMM dispatch and the prepacked
// projection strips, so a regression that makes either path allocate fails
// here even when the chunk-sized gate stays clean.
func TestEngineZeroAllocBatch1(t *testing.T) {
	for _, kern := range []struct {
		name   string
		packed bool
	}{{"float", false}, {"packed", true}} {
		for _, mode := range []struct {
			name string
			opts []engine.Option
		}{
			{"fused", nil},
			{"remat", []engine.Option{engine.WithRemat()}},
			{"folded", []engine.Option{engine.WithFoldedTail()}},
			{"staged", []engine.Option{engine.WithStagedTail()}},
		} {
			t.Run(kern.name+"/"+mode.name, func(t *testing.T) {
				p, test := buildPipeline(t, func(c *core.Config) { c.PackedInference = kern.packed })
				e, err := engine.Compile(p, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				sample := test.Images.Len() / test.Len()
				img := tensor.FromSlice(test.Images.Data[:sample], 1,
					test.Images.Shape[1], test.Images.Shape[2], test.Images.Shape[3])
				preds := make([]int, 1)
				if err := e.PredictInto(img, preds); err != nil {
					t.Fatal(err)
				}
				if a := testing.AllocsPerRun(100, func() {
					if err := e.PredictInto(img, preds); err != nil {
						t.Fatal(err)
					}
				}); a != 0 {
					t.Fatalf("%s/%s batch-1 PredictInto allocated %.1f times per run",
						kern.name, mode.name, a)
				}
			})
		}
	}
}

// TestEngineZeroAllocBatch1ImplicitConv covers the implicit-GEMM convolution
// path under the alloc gate: a vgg16 prefix on 32×32 inputs clears the
// convImplicitMinFloats threshold on its wide conv layers with the default
// gate, so batch-1 inference runs tensor.ConvMulRowsInto over the full map
// from arena scratch — and must stay allocation-free.
func TestEngineZeroAllocBatch1ImplicitConv(t *testing.T) {
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 4, Train: 16, Test: 4, Size: 32, Noise: 0.2, Seed: 81,
	})
	zoo, err := cnn.Build("vgg16", tensor.NewRNG(82), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4, 4)
	cfg.Seed = 83
	cfg.D = 600
	cfg.FHat = 40
	p, err := core.New(zoo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	sample := train.Images.Len() / train.Images.Shape[0]
	img := tensor.FromSlice(train.Images.Data[:sample], 1,
		train.Images.Shape[1], train.Images.Shape[2], train.Images.Shape[3])
	preds := make([]int, 1)
	if err := e.PredictInto(img, preds); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := e.PredictInto(img, preds); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("implicit-conv batch-1 PredictInto allocated %.1f times per run", a)
	}
}
