// Command perfbench is the repository's benchmark: four serving workloads
// over the NSHD engine, batcher and router, each checked against a
// reference engine. An untraced run (--trace 0) prints the end-to-end
// metrics; a traced run (--trace 1) prints the per-layer metrics and writes
// the spans it recorded. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload edge-b1 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// run is one invocation's settings and the figures it collects.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tr       *tracer // nil unless traced

	attempted int64
	failed    int64 // wrong answers and errors
	wrong     int64 // subset of failed: answers that disagree with the reference

	metrics map[string]float64
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// workload runs one traffic mix. It builds its own fixture from r.seed,
// checks every answer, and fills r's counters and metrics: the end-to-end
// set when untraced, the per-layer set when traced.
type workload func(r *run) error

var workloads = map[string]workload{
	"edge-b1":      runEdge,
	"online-open":  runOnline,
	"bulk-int8":    runBulk,
	"cluster-http": runCluster,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: edge-b1, online-open, bulk-int8 or cluster-http")
	seed := flag.Int64("seed", 1, "seed for the model, the data and the request schedule")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	traceOut := flag.String("trace-out", "", "span file (default .bench_build/trace-<workload>-<seed>.json)")
	list := flag.Bool("list", false, "print every metric with the layer and workload it should move, then exit")
	flag.Parse()

	if *list {
		printMetricTable(os.Stdout)
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	r := &run{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, metrics: map[string]float64{}}
	if r.traced {
		r.tr = newTracer()
	}
	if err := w(r); err != nil {
		fatalf("%s: %v", *name, err)
	}

	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && d.applies(r.workload) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fatalf("%s: no value for %v", *name, missing)
	}
	if r.traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		}
		if err := r.tr.writeFile(path); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", r.tr.len(), path)
	}
	if r.attempted < 1 {
		fatalf("%s: no requests completed in %.1fs", *name, *seconds)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "%s: %d wrong answers\n", *name, r.wrong)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// warmup is how long each workload runs untimed before its first timed
// phase, so the process's lazy set-up (heap growth, goroutine stacks,
// worker threads) is done before timing starts.
const warmup = 3 * time.Second

// deadline returns the end of a phase that lasts share of the run.
func (r *run) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * r.seconds * float64(time.Second)))
}

// errWrong marks an answer that disagrees with the reference engine.
var errWrong = errors.New("answer differs from the reference engine")
