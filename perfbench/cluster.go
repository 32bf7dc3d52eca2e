package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nshd/internal/core"
	"nshd/internal/engine"
	"nshd/internal/serve"
	"nshd/internal/tensor"
)

const (
	clusterShards  = 2
	clusterCallers = 2
	// clusterBodies distinct request bodies a run cycles through; each has
	// 1–16 images, one in clusterJSONEvery is JSON and the rest binary
	// frames.
	clusterBodies    = 64
	clusterMaxImages = 16
	clusterJSONEvery = 4
	clusterLimit     = 200 * time.Millisecond
)

// Span propagation across the loopback hops: the caller names its request
// span in spanHeader; the front middleware puts its own span in the request
// context, and the router's transport copies it into parentHeader on every
// shard call.
const (
	spanHeader   = "X-Bench-Span"
	parentHeader = "X-Bench-Parent"
)

type spanKey struct{}

// hop wraps handlers and the router's transport: it records spans while
// tracing is on and always counts the router↔shard bytes.
type hop struct {
	tr      *tracer
	on      atomic.Bool
	wire    atomic.Int64 // /partial request and response bytes
	forward http.RoundTripper
}

// middleware records a span named name around h, parented by the span ID
// in header.
func (hp *hop) middleware(name, header string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !hp.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(header), 10, 64)
		id := hp.tr.newID()
		start := time.Now()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, id)))
		hp.tr.record(id, parent, name, start, time.Now())
	})
}

func (hp *hop) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	}
	resp, err := hp.forward.RoundTrip(req)
	if err != nil || req.URL.Path != "/partial" {
		return resp, err
	}
	hp.wire.Add(req.ContentLength)
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &hp.wire}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// cluster is the running sharded tier: shard servers, router and front.
type cluster struct {
	hop      *hop
	shards   []*engine.Engine
	batchers []*serve.Batcher
	servers  []*http.Server
	router   *serve.Router
	front    string // front URL
	f        *fixture
	compileS float64
}

func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, b := range c.batchers {
		b.Close()
	}
}

// serveOn starts h on a fresh loopback listener and returns its URL.
func (c *cluster) serveOn(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.servers = append(c.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// startCluster compiles clusterShards D-slices of f's model, serves each
// behind its own Server, and puts a router and its HTTP front over them.
func startCluster(f *fixture, hp *hop) (*cluster, error) {
	c := &cluster{hop: hp, f: f}
	var addrs [][]string
	for i := 0; i < clusterShards; i++ {
		t0 := time.Now()
		e, err := engine.CompileShard(f.p, i, clusterShards)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("compile shard %d: %w", i, err)
		}
		c.compileS += time.Since(t0).Seconds()
		b, err := serve.New(e, serve.Options{})
		if err != nil {
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, e)
		c.batchers = append(c.batchers, b)
		url, err := c.serveOn(hp.middleware("http.shard", parentHeader, serve.NewServer(b, 10*time.Second).Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		addrs = append(addrs, []string{url})
	}
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{Client: &http.Client{Transport: hp}})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	c.front, err = c.serveOn(hp.middleware("http.front", spanHeader, serve.NewRouterServer(rt).Handler()))
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// clusterBody is one pre-encoded /predict request and its reference answer.
type clusterBody struct {
	body   []byte
	binary bool
	want   []int
}

// clusterRequests builds the request mix and encodes every body before
// timing, so client-side encoding does not compete with the servers for the
// CPUs. The mix is the same for every seed: each size from 1 to
// clusterMaxImages appears equally often, one in four of each size as JSON.
// The seed picks the images and the order.
func clusterRequests(seed int64, f *fixture, ref []int) ([]clusterBody, error) {
	rng := tensor.NewRNG(seed + 4)
	out := make([]clusterBody, clusterBodies)
	for k, i := range rng.Perm(clusterBodies) {
		n := 1 + k%clusterMaxImages
		imgs := make([]int, n)
		for j := range imgs {
			imgs[j] = rng.Intn(inputPool)
			out[i].want = append(out[i].want, ref[imgs[j]])
		}
		if k < clusterBodies/clusterJSONEvery {
			rows := make([][]float32, n)
			for j, idx := range imgs {
				rows[j] = f.image(idx)
			}
			raw, err := json.Marshal(map[string][][]float32{"inputs": rows})
			if err != nil {
				return nil, err
			}
			out[i].body = raw
			continue
		}
		buf := binary.LittleEndian.AppendUint32(nil, uint32(n))
		for _, idx := range imgs {
			for _, v := range f.image(idx) {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
		out[i].body, out[i].binary = buf, true
	}
	return out, nil
}

// post sends one body and checks the answer.
func post(client *http.Client, url string, b *clusterBody, spanID int64) error {
	req, err := http.NewRequest(http.MethodPost, url+"/predict", bytes.NewReader(b.body))
	if err != nil {
		return err
	}
	if b.binary {
		req.Header.Set("Content-Type", "application/octet-stream")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var got []int
	if b.binary {
		if len(raw) < 4 || len(raw) != 4+4*int(binary.LittleEndian.Uint32(raw)) {
			return fmt.Errorf("malformed binary answer of %d bytes", len(raw))
		}
		for i := 4; i < len(raw); i += 4 {
			got = append(got, int(binary.LittleEndian.Uint32(raw[i:])))
		}
	} else {
		var out struct {
			Classes []int `json:"classes"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		got = out.Classes
	}
	if len(got) != len(b.want) {
		return fmt.Errorf("%d answers for %d images", len(got), len(b.want))
	}
	for i := range got {
		if got[i] != b.want[i] {
			return errWrong
		}
	}
	return nil
}

// closedCallers runs clusterCallers closed-loop callers, each on its own
// keep-alive connection, until the phase ends.
func closedCallers(r *run, c *cluster, bodies []clusterBody, share float64, tr *tracer) (*recorder, time.Time) {
	var mu sync.Mutex
	rc := newRecorder(clusterLimit)
	var wg sync.WaitGroup
	end := r.deadline(share)
	for k := 0; k < clusterCallers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			for i := k; time.Now().Before(end); i += clusterCallers {
				b := &bodies[i%len(bodies)]
				var id int64
				if tr != nil {
					id = tr.newID()
				}
				t0 := time.Now()
				err := post(client, c.front, b, id)
				t1 := time.Now()
				if tr != nil {
					tr.record(id, 0, "request", t0, t1)
				}
				rc.add(t1, t1.Sub(t0), len(b.want), err)
				mu.Lock()
				r.count(err)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	return rc, end
}

// runCluster is cluster-http: closed-loop HTTP callers to a router over
// D-sharded shard servers.
func runCluster(r *run) error {
	hp := &hop{tr: r.tr, forward: http.DefaultTransport.(*http.Transport).Clone()}
	var sp setupParts
	c, setupS, err := timedSetup(func() (*cluster, error) {
		t0 := time.Now()
		f, err := buildFixture(clusterModel, r.seed)
		if err != nil {
			return nil, err
		}
		sp.fixture = append(sp.fixture, time.Since(t0).Seconds())
		c, err := startCluster(f, hp)
		if err != nil {
			return nil, err
		}
		sp.compile = append(sp.compile, c.compileS)
		return c, nil
	}, func(c *cluster) { c.close() })
	if err != nil {
		return err
	}
	defer c.close()
	ref, err := referencePreds(c.f, floatRef...)
	if err != nil {
		return err
	}
	bodies, err := clusterRequests(r.seed, c.f, ref)
	if err != nil {
		return err
	}
	warm := &run{seconds: warmup.Seconds()}
	closedCallers(warm, c, bodies, 1, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	settle()

	if !r.traced {
		rc, end := closedCallers(r, c, bodies, 1, nil)
		r.set("setup_s", setupS)
		if err := r.setEndToEnd(rc, end); err != nil {
			return err
		}
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(c)
		return nil
	}

	st0, rt0, w0 := c.router.Stats(), readRuntime(), hp.wire.Load()
	rc, _ := closedCallers(r, c, bodies, 0.5, nil)
	st1, w1 := c.router.Stats(), hp.wire.Load()
	images := rc.images()
	r.setRuntimeDelta(rt0, readRuntime(), int64(images))
	lats := rc.lats()
	untraced := median(append([]float64(nil), lats...))
	r.setTail(lats)
	r.set("router.retries", float64(st1["retries"]-st0["retries"]))
	r.set("router.hedges", float64(st1["hedges"]-st0["hedges"]))
	r.set("router.errors", float64(st1["errors"]-st0["errors"]))
	r.set("wire.bytes_per_image", float64(w1-w0)/float64(max(images, 1)))

	hp.on.Store(true)
	traced, _ := closedCallers(r, c, bodies, 0.35, r.tr)
	hp.on.Store(false)
	r.setHTTPSpans()
	r.set("trace.overhead_us", median(traced.lats())-untraced)

	// Stage split of one shard at a full 16-image request.
	e := c.shards[0]
	x := c.f.images(0, min(clusterMaxImages, e.ChunkSize()))
	ss := newStageSamples()
	end := r.deadline(0.05)
	for time.Now().Before(end) || len(ss.sum) < 20 {
		rows, err := e.TimeStages(x, 1)
		if err != nil {
			return err
		}
		ss.add(rows)
	}
	pk := r.probeKernels(c.f.p, x.Shape[0], r.seed)
	r.setStageMetrics(ss, shardCosts(c.f.p.Costs(), e), x.Shape[0], pk, false)
	// Every shard runs its stages for a request; the front waits for both.
	r.set("engine.overhead_us", untraced-median(ss.sum))
	var model, arena int64
	for _, s := range c.shards {
		model += s.ModelBytes()
		arena += s.ArenaBytes()
	}
	r.setEngineFacts(model, arena, e)
	sp.report(r)
	r.setFailShare()
	return nil
}

// shardCosts scales the per-dimension costs to one shard's D-slice.
func shardCosts(c core.CostReport, e *engine.Engine) core.CostReport {
	share := float64(e.Dim()) / float64(e.FullDim())
	c.EncodeMACs = int64(float64(c.EncodeMACs) * share)
	c.SimilarityMACs = int64(float64(c.SimilarityMACs) * share)
	return c
}

// setHTTPSpans reports the front and shard span medians and the router's
// own time: each front span minus its slowest shard span.
func (r *run) setHTTPSpans() {
	spans := r.tr.snapshot()
	slowest := map[int64]int64{}
	var front, shard []float64
	for _, s := range spans {
		if s.Name == "http.shard" {
			shard = append(shard, float64(s.End-s.Start)/1e3)
			slowest[s.Parent] = max(slowest[s.Parent], s.End-s.Start)
		}
	}
	var self []float64
	for _, s := range spans {
		if s.Name == "http.front" {
			front = append(front, float64(s.End-s.Start)/1e3)
			self = append(self, float64(s.End-s.Start-slowest[s.ID])/1e3)
		}
	}
	r.set("http.front_us", median(front))
	r.set("http.shard_us", median(shard))
	r.set("router.self_us", median(self))
}
