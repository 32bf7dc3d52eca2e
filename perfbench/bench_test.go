package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"nshd/internal/dataset"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	// Nearest rank 90 leaves exactly 10 samples beyond it.
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// p99 of 100 samples has one sample beyond it: not reported.
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 100 samples reported with 1 sample beyond it")
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Fatal("p90 of 99 samples reported with 9 samples beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	big := make([]float64, 1010)
	for i := range big {
		big[i] = float64(i)
	}
	if v, ok := percentile(big, 0.99); !ok || v != 999 {
		t.Fatalf("p99 of 0..1009 = %v, %v; want 999, true", v, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "front", Start: 0, End: 100},
		// Overlapping children count once; the part past the parent's end
		// does not count.
		{ID: 2, Parent: 1, Name: "shard", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "shard", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "shard", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	sum := summarize(spans)
	if s := sum["shard"]; s.Count != 3 || s.SelfUs != 0.02 || s.DurationUs != 0.03 {
		t.Fatalf("shard summary %+v", s)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				now := time.Now()
				tr.add(0, "x", now, now)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	ids := map[int64]bool{}
	for _, s := range tr.snapshot() {
		ids[s.ID] = true
	}
	if len(ids) != 400 {
		t.Fatalf("%d distinct span IDs, want 400", len(ids))
	}
}

func TestScheduleDeterministic(t *testing.T) {
	counts := make([]int, len(ladder))
	for i := range counts {
		counts[i] = 200
	}
	a := schedule(7, ladder, counts)
	b := schedule(7, ladder, counts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, ladder, counts)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, rate := range ladder {
		if len(a[i]) != 200 {
			t.Fatalf("rung %d has %d arrivals, want 200", i, len(a[i]))
		}
		// The mean gap of 200 exponential draws is within 30% of 1/rate.
		mean := a[i][len(a[i])-1].at.Seconds() / 200
		if want := 1 / float64(rate); mean < 0.7*want || mean > 1.3*want {
			t.Errorf("rung %d mean gap %.6fs, want about %.6fs", i, mean, want)
		}
		for j := 1; j < len(a[i]); j++ {
			if a[i][j].at < a[i][j-1].at {
				t.Fatalf("rung %d arrivals out of order at %d", i, j)
			}
		}
	}
}

func TestUnitKind(t *testing.T) {
	for name, want := range map[string]string{
		"fused{conv3x3(3→16,s1,p1)+relu}":  "fused",
		"Int8Fused{Int8Conv2D(3→16, 3x3)}": "fused",
		"conv3x3(3→16,s1,p1)":              "conv",
		"relu":                             "act",
		"maxpool2":                         "pool",
		"flatten":                          "other",
	} {
		if got := unitKind(name); got != want {
			t.Errorf("unitKind(%q) = %q, want %q", name, got, want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// benchmarkSpec is BENCHMARK.json as the metric tables define it.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := benchmarkSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		if _, ok := workloads[w.name]; !ok {
			t.Errorf("workload %q has a reason but no implementation", w.name)
		}
		want.Workloads = append(want.Workloads, workloadSpec{w.name, w.why})
	}
	if len(want.Workloads) != len(workloads) {
		t.Errorf("%d workloads implemented, %d with a reason", len(workloads), len(want.Workloads))
	}
	seen := map[string]bool{}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, e2eSpec{d.name, d.unit, d.better, d.bound})
		seen[d.name] = true
	}
	for _, d := range perLayer {
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
		if d.moves == "" {
			t.Errorf("per-layer metric %q does not say what it should move", d.name)
		}
		want.PerLayer = append(want.PerLayer, layerSpec{d.name, d.unit, d.better})
	}
	raw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(raw) {
		t.Fatalf("../BENCHMARK.json differs from the metric tables; run go test -run TestBenchmarkJSON -update")
	}
}

func TestRungCounts(t *testing.T) {
	c := rungCounts(3.75)
	top := len(ladder) - 1
	if want := int(float64(ladder[top]) * onlineTopRung.Seconds()); c[top] != want {
		t.Errorf("top rung %d requests, want %d", c[top], want)
	}
	var secs float64
	for i, rate := range ladder {
		secs += float64(c[i]) / float64(rate)
		if i < top && c[i] != c[0] {
			t.Errorf("rung %d has %d requests, rung 0 has %d", i, c[i], c[0])
		}
	}
	if secs < 3.5 || secs > 3.75 {
		t.Errorf("round lasts %.2fs nominal, want about 3.75s", secs)
	}
}

func TestWindowRates(t *testing.T) {
	// Back-to-back 300 ms requests of 10 images over a 3 s phase: every
	// window sees 10/0.3 images per second, though no window boundary
	// falls on a request boundary.
	rc := newRecorder(time.Second)
	rc.start = time.Unix(0, 0)
	for at := 300 * time.Millisecond; at <= 3*time.Second; at += 300 * time.Millisecond {
		rc.add(rc.start.Add(at), 300*time.Millisecond, 10, nil)
	}
	rc.add(rc.start.Add(3*time.Second), 2*time.Second, 10, errWrong) // counts nowhere
	ips, gps := rc.rates(rc.start.Add(3 * time.Second))
	if d := ips - 100.0/3; d > 1e-9 || d < -1e-9 {
		t.Errorf("images per second %v, want %v", ips, 100.0/3)
	}
	if d := gps - 10.0/3; d > 1e-9 || d < -1e-9 {
		t.Errorf("good requests per second %v, want %v", gps, 10.0/3)
	}
}

func TestClusterMixSameForEverySeed(t *testing.T) {
	_, test := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 2, Train: 2, Test: inputPool, Size: 32, Seed: 1})
	f := &fixture{test: test}
	ref := make([]int, inputPool)
	mix := func(seed int64) map[[2]int]int {
		bodies, err := clusterRequests(seed, f, ref)
		if err != nil {
			t.Fatal(err)
		}
		m := map[[2]int]int{}
		for _, b := range bodies {
			kind := 0
			if b.binary {
				kind = 1
			}
			m[[2]int{len(b.want), kind}]++
		}
		return m
	}
	a := mix(1)
	if !reflect.DeepEqual(a, mix(2)) {
		t.Fatal("request mix depends on the seed")
	}
	for n := 1; n <= clusterMaxImages; n++ {
		if a[[2]int{n, 0}] != 1 || a[[2]int{n, 1}] != clusterJSONEvery-1 {
			t.Errorf("size %d: %d JSON, %d binary bodies", n, a[[2]int{n, 0}], a[[2]int{n, 1}])
		}
	}
	x, _ := clusterRequests(3, f, ref)
	y, _ := clusterRequests(3, f, ref)
	if !reflect.DeepEqual(x, y) {
		t.Fatal("same seed gave different bodies")
	}
}
