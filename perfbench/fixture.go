package main

import (
	"fmt"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/tensor"
)

// modelSpec is the shape of one benchmark model. Weights, projection and
// data all come from the run's seed, so every run builds its own fixture and
// never reads a model file from an earlier build.
type modelSpec struct {
	zoo    string
	cut    int
	d      int
	chunk  int // core.Config.BatchSize: the engine's chunk and the batcher's MaxBatch
	packed bool
}

var (
	// edgeModel serves edge-b1, online-open and bulk-int8: the paper's
	// deployment point (vgg16 cut 8, D=3000, packed classifier).
	edgeModel = modelSpec{zoo: "vgg16", cut: 8, d: 3000, chunk: 32, packed: true}
	// clusterModel is tail-heavy: a cut-1 extractor feeds a wide manifold
	// and a D=20000 tail, the regime dimension sharding is for.
	clusterModel = modelSpec{zoo: "vgg16", cut: 1, d: 20000, chunk: 16, packed: true}
)

const (
	fixtureClasses = 10
	fixtureTrain   = 64  // samples bundled into class hypervectors
	inputPool      = 256 // distinct request images a run cycles through
)

// fixture is one seeded model plus its data splits.
type fixture struct {
	p     *core.Pipeline
	train *dataset.Dataset // bundling set, also int8 calibration
	test  *dataset.Dataset // request images
}

// buildFixture builds the zoo model and the synthetic data from the seed,
// then bundles the class hypervectors from the training split. Bundling
// alone gives every class a distinct hypervector, which is all the serving
// paths need.
func buildFixture(m modelSpec, seed int64) (*fixture, error) {
	train, test := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: fixtureClasses, Train: fixtureTrain, Test: inputPool, Size: 32, Noise: 0.2, Seed: seed,
	})
	zoo, err := cnn.Build(m.zoo, tensor.NewRNG(seed+1), fixtureClasses)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(m.cut, fixtureClasses)
	cfg.Seed = seed + 2
	cfg.D = m.d
	cfg.FHat = 100
	cfg.BatchSize = m.chunk
	cfg.PackedInference = m.packed
	p, err := core.New(zoo, cfg)
	if err != nil {
		return nil, fmt.Errorf("fixture %s cut %d: %w", m.zoo, m.cut, err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	return &fixture{p: p, train: train, test: test}, nil
}

// sampleLen is the flat float count of one request image.
func (f *fixture) sampleLen() int { return f.test.Images.Len() / f.test.Len() }

// image returns pool image i as flat floats.
func (f *fixture) image(i int) []float32 {
	n := f.sampleLen()
	return f.test.Images.Data[i*n : (i+1)*n]
}

// images returns a [n C H W] view over pool images starting at i (n ≤ pool-i).
func (f *fixture) images(i, n int) *tensor.Tensor {
	s := f.test.Images.Shape
	return tensor.FromSlice(f.test.Images.Data[i*f.sampleLen():(i+n)*f.sampleLen()], n, s[1], s[2], s[3])
}

// setupReps is how many times a run builds its serving stack. setup_s is
// the median; the last build is the one measured.
const setupReps = 7

// timedSetup runs build setupReps times and returns the last result with
// the median wall time. Each earlier result is released before the next
// build so only one stack is ever live.
func timedSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var out T
	times := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			release(out)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	return out, median(times), nil
}
