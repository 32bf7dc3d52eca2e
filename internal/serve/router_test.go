package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// routerD gives the shard tests a 3-block dimension (256+256+21) so S up to
// 3 is possible with a ragged tail, while staying fast to compile.
const routerD = 533

// buildShardPipeline trains one pipeline at routerD and returns it with the
// test set.
func buildShardPipeline(t *testing.T, mut func(*core.Config)) (*core.Pipeline, *dataset.Dataset) {
	t.Helper()
	_, p, test := func() (*engine.Engine, *core.Pipeline, *dataset.Dataset) {
		return buildEngine(t, func(c *core.Config) {
			c.D = routerD
			if mut != nil {
				mut(c)
			}
		})
	}()
	return p, test
}

// shardFleet spins one Batcher+Server per shard of p and returns the base
// URLs (one replica per slot) plus the batchers for swap tests.
func shardFleet(t *testing.T, p *core.Pipeline, S int) ([][]string, []*Batcher) {
	t.Helper()
	addrs := make([][]string, S)
	batchers := make([]*Batcher, S)
	for s := 0; s < S; s++ {
		e, err := engine.CompileShard(p, s, S)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(e, Options{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(b, 5*time.Second).Handler())
		t.Cleanup(func() { srv.Close(); b.Close() })
		addrs[s] = []string{srv.URL}
		batchers[s] = b
	}
	return addrs, batchers
}

// batchOf returns the first n test samples as one flat slice.
func batchOf(test *dataset.Dataset, n int) []float32 {
	sl := test.Images.Len() / test.Len()
	return test.Images.Data[:n*sl]
}

// TestRouterMatchesEngine: the routed cluster answer is bit-identical to the
// unsharded engine for S ∈ {1, 2, 3}, for both kernels.
func TestRouterMatchesEngine(t *testing.T) {
	for _, packed := range []bool{true, false} {
		name := "float"
		if packed {
			name = "packed"
		}
		t.Run(name, func(t *testing.T) {
			p, test := buildShardPipeline(t, func(c *core.Config) { c.PackedInference = packed })
			full, err := engine.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			const n = 8
			imgs := tensor.FromSlice(batchOf(test, n), n, 3, 16, 16)
			want, err := full.Predict(imgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, S := range []int{1, 2, 3} {
				addrs, _ := shardFleet(t, p, S)
				r, err := NewRouter(addrs, RouterOptions{PollInterval: -1})
				if err != nil {
					t.Fatalf("S=%d: %v", S, err)
				}
				defer r.Close()
				if r.Version() != full.ModelVersion() {
					t.Fatalf("S=%d: router pinned %016x, model is %016x", S, r.Version(), full.ModelVersion())
				}
				got, err := r.Predict(context.Background(), batchOf(test, n), n)
				if err != nil {
					t.Fatalf("S=%d: %v", S, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("S=%d sample %d: routed %d, engine %d", S, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRouterRollingSwapZeroDowntime: shards swap to a retrained model one
// process at a time under continuous load; no request ever fails, answers
// always come from a single consistent model version, and the router flips
// to the new version only after the whole fleet advertises it.
func TestRouterRollingSwapZeroDowntime(t *testing.T) {
	p1, test := buildShardPipeline(t, nil)
	p2, _ := buildShardPipeline(t, func(c *core.Config) { c.Seed = 8 })
	full1, err := engine.Compile(p1)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := engine.Compile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if full1.ModelVersion() == full2.ModelVersion() {
		t.Fatal("fixtures must have distinct model versions")
	}
	const n = 8
	imgs := tensor.FromSlice(batchOf(test, n), n, 3, 16, 16)
	want1, _ := full1.Predict(imgs)
	want2, _ := full2.Predict(imgs)

	const S = 2
	addrs, batchers := shardFleet(t, p1, S)
	r, err := NewRouter(addrs, RouterOptions{PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Continuous load through the whole rollout.
	var stop atomic.Bool
	var reqErr atomic.Value
	matches := func(got []int, want []int) bool {
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	var served1, served2 atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := r.Predict(context.Background(), batchOf(test, n), n)
				if err != nil {
					reqErr.Store(err)
					return
				}
				switch {
				case matches(got, want1):
					served1.Add(1)
				case matches(got, want2):
					served2.Add(1)
				default:
					reqErr.Store(errors.New("answer matches neither model version"))
					return
				}
			}
		}()
	}

	// Roll the fleet one shard at a time.
	for s := 0; s < S; s++ {
		e2, err := engine.CompileShard(p2, s, S)
		if err != nil {
			t.Fatal(err)
		}
		if err := batchers[s].Swap(e2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // let load run against the half-rolled fleet
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Version() != full2.ModelVersion() {
		if time.Now().After(deadline) {
			t.Fatalf("router never flipped to %016x (still %016x)", full2.ModelVersion(), r.Version())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Serve a little on the new version, then stop the load.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if e := reqErr.Load(); e != nil {
		t.Fatalf("request failed during rolling swap: %v", e)
	}
	if served1.Load() == 0 {
		t.Fatal("no requests served on the old version (test raced past the rollout)")
	}
	if served2.Load() == 0 {
		t.Fatal("no requests served on the new version after the flip")
	}
	// After the flip the answer must be the new model's.
	got, err := r.Predict(context.Background(), batchOf(test, n), n)
	if err != nil {
		t.Fatal(err)
	}
	if !matches(got, want2) {
		t.Fatalf("post-flip answer %v, want new model's %v", got, want2)
	}
}

// restartableShard serves one shard on a fixed port through kill/restart
// cycles.
type restartableShard struct {
	t       *testing.T
	addr    string
	handler http.Handler
	srv     *http.Server
}

func newRestartableShard(t *testing.T, handler http.Handler) *restartableShard {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartableShard{t: t, addr: ln.Addr().String(), handler: handler}
	rs.serve(ln)
	return rs
}

func (rs *restartableShard) serve(ln net.Listener) {
	rs.srv = &http.Server{Handler: rs.handler}
	go rs.srv.Serve(ln)
}

func (rs *restartableShard) kill() { rs.srv.Close() }

func (rs *restartableShard) restart() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", rs.addr)
		if err == nil {
			rs.serve(ln)
			return
		}
		if time.Now().After(deadline) {
			rs.t.Errorf("could not rebind %s: %v", rs.addr, err)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterChaosShardRestart: a shard process dies mid-load and comes back.
// While it is down every affected request fails EXPLICITLY (wrapped
// ErrShardUnavailable) — an answered request is always exact — and after the
// restart the router recovers on its own.
func TestRouterChaosShardRestart(t *testing.T) {
	p, test := buildShardPipeline(t, nil)
	full, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	imgs := tensor.FromSlice(batchOf(test, n), n, 3, 16, 16)
	want, _ := full.Predict(imgs)

	const S = 2
	addrs := make([][]string, S)
	var chaos *restartableShard
	for s := 0; s < S; s++ {
		e, err := engine.CompileShard(p, s, S)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(e, Options{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		handler := NewServer(b, 5*time.Second).Handler()
		if s == 1 {
			chaos = newRestartableShard(t, handler)
			t.Cleanup(chaos.kill)
			addrs[s] = []string{"http://" + chaos.addr}
		} else {
			srv := httptest.NewServer(handler)
			t.Cleanup(srv.Close)
			addrs[s] = []string{srv.URL}
		}
	}
	r, err := NewRouter(addrs, RouterOptions{
		Timeout:      2 * time.Second,
		PollInterval: 2 * time.Millisecond,
		EjectAfter:   2,
		EjectCooloff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var stop atomic.Bool
	var wrong atomic.Value
	var okBefore, failed, okAfter atomic.Int64
	var phase atomic.Int32 // 0 = up, 1 = down, 2 = restarted
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := r.Predict(context.Background(), batchOf(test, n), n)
				if err != nil {
					if !errors.Is(err, ErrShardUnavailable) && !errors.Is(err, context.DeadlineExceeded) {
						wrong.Store(err)
						return
					}
					failed.Add(1)
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						wrong.Store(errors.New("answered request had wrong prediction"))
						return
					}
				}
				if phase.Load() == 2 {
					okAfter.Add(1)
				} else {
					okBefore.Add(1)
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	phase.Store(1)
	chaos.kill()
	time.Sleep(50 * time.Millisecond)
	chaos.restart()
	phase.Store(2)

	deadline := time.Now().Add(5 * time.Second)
	for okAfter.Load() < 5 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("router never recovered after restart (ok before=%d failed=%d)", okBefore.Load(), failed.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if e := wrong.Load(); e != nil {
		t.Fatalf("silent corruption during chaos: %v", e)
	}
	if okBefore.Load() == 0 {
		t.Fatal("no successful requests before the kill")
	}
	if failed.Load() == 0 {
		t.Fatal("the kill window produced no explicit failures — chaos did not bite")
	}
}

// TestRouterReplicaFailover: a slot with two replicas keeps answering when
// one dies; the dead replica gets ejected after consecutive failures.
func TestRouterReplicaFailover(t *testing.T) {
	p, test := buildShardPipeline(t, nil)
	full, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	imgs := tensor.FromSlice(batchOf(test, n), n, 3, 16, 16)
	want, _ := full.Predict(imgs)

	const S = 2
	addrs, _ := shardFleet(t, p, S)
	// Second replica for slot 0, backed by its own batcher over an equal
	// shard engine.
	e0, err := engine.CompileShard(p, 0, S)
	if err != nil {
		t.Fatal(err)
	}
	b0b, err := New(e0, Options{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b0b.Close)
	doomed := httptest.NewServer(NewServer(b0b, 5*time.Second).Handler())
	addrs[0] = append(addrs[0], doomed.URL)

	r, err := NewRouter(addrs, RouterOptions{
		Timeout:      2 * time.Second,
		PollInterval: -1,
		EjectAfter:   1,
		EjectCooloff: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	doomed.Close()
	// Every request must still succeed: attempts that land on the dead
	// replica fail over to the live one.
	for i := 0; i < 8; i++ {
		got, err := r.Predict(context.Background(), batchOf(test, n), n)
		if err != nil {
			t.Fatalf("request %d failed despite a live replica: %v", i, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("request %d sample %d: %d want %d", i, j, got[j], want[j])
			}
		}
	}
	st := r.Stats()
	if st["retries"] == 0 {
		t.Fatal("no failovers recorded — the dead replica was never tried")
	}
	if st["ejects"] == 0 {
		t.Fatal("dead replica was never ejected")
	}
}

// TestRouterPartialEndpointFrameSanity: a corrupt length prefix on the
// binary endpoints is a clean 400, never an allocation sized by the corrupt
// value; a version the shard cannot serve is a 409.
func TestRouterPartialEndpointFrameSanity(t *testing.T) {
	e, _, _ := buildEngine(t, nil)
	b, err := New(e, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(b, time.Second).Handler())
	t.Cleanup(func() { srv.Close(); b.Close() })

	post := func(path string, body []byte) int {
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Corrupt length prefixes: far beyond MaxBatch, and zero.
	huge := make([]byte, partialReqHeaderLen)
	binary.LittleEndian.PutUint32(huge, 0xFFFFFFFF)
	if got := post("/partial", huge); got != http.StatusBadRequest {
		t.Fatalf("huge /partial prefix: %d, want 400", got)
	}
	zero := make([]byte, partialReqHeaderLen)
	if got := post("/partial", zero); got != http.StatusBadRequest {
		t.Fatalf("zero /partial prefix: %d, want 400", got)
	}
	if got := post("/predict", huge[:4]); got != http.StatusBadRequest {
		t.Fatalf("huge /predict prefix: %d, want 400", got)
	}
	// Truncated payload after a sane prefix.
	trunc := make([]byte, partialReqHeaderLen+8)
	binary.LittleEndian.PutUint32(trunc, 2)
	if got := post("/partial", trunc); got != http.StatusBadRequest {
		t.Fatalf("truncated /partial: %d, want 400", got)
	}
	// A version this shard never served → 409.
	stale := make([]byte, partialReqHeaderLen+1*e.SampleLen()*4)
	binary.LittleEndian.PutUint32(stale, 1)
	binary.LittleEndian.PutUint64(stale[4:], 0xDEADBEEF)
	if got := post("/partial", stale); got != http.StatusConflict {
		t.Fatalf("stale version: %d, want 409", got)
	}
}

// TestNonFiniteInputsRejected: a NaN or +Inf in a binary /predict frame, to
// a shard Server or to the RouterServer front, or in a /partial frame is a
// 400 naming ErrNonFinite. The router refuses it before fan-out, so no
// replica records a failure and none is ejected even at EjectAfter 1.
func TestNonFiniteInputsRejected(t *testing.T) {
	p, test := buildShardPipeline(t, nil)
	const S, n = 2, 3
	addrs, batchers := shardFleet(t, p, S)
	r, err := NewRouter(addrs, RouterOptions{PollInterval: -1, EjectAfter: 1, EjectCooloff: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(NewRouterServer(r).Handler())
	t.Cleanup(front.Close)

	sl := r.SampleLen()
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		data := append([]float32(nil), batchOf(test, n)...)
		data[sl+5] = bad
		predict := make([]byte, 4+4*len(data))
		binary.LittleEndian.PutUint32(predict, n)
		for i, v := range data {
			binary.LittleEndian.PutUint32(predict[4+4*i:], math.Float32bits(v))
		}
		partial := appendPartialRequest(nil, data, n, r.Version())
		for _, tc := range []struct {
			name, url string
			body      []byte
		}{
			{"shard /predict", addrs[0][0] + "/predict", predict},
			{"router /predict", front.URL + "/predict", predict},
			{"shard /partial", addrs[1][0] + "/partial", partial},
		} {
			resp, err := http.Post(tc.url, "application/octet-stream", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte(ErrNonFinite.Error())) {
				t.Fatalf("%v via %s: %d %q, want 400 %q", bad, tc.name, resp.StatusCode, msg, ErrNonFinite)
			}
		}
		if _, err := r.Predict(context.Background(), data, n); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%v: Router.Predict err %v, want ErrNonFinite", bad, err)
		}
		if _, err := batchers[0].PredictBatch(context.Background(), data, n); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%v: PredictBatch err %v, want ErrNonFinite", bad, err)
		}
		if err := batchers[0].PredictPartial(context.Background(), data, n, 0, &engine.PartialScores{}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%v: PredictPartial err %v, want ErrNonFinite", bad, err)
		}
	}
	if st := r.Stats(); st["ejects"] != 0 || st["errors"] != 0 || st["retries"] != 0 {
		t.Fatalf("non-finite requests reached the fleet: %v", st)
	}
	if _, err := r.Predict(context.Background(), batchOf(test, n), n); err != nil {
		t.Fatalf("finite request after the rejections: %v", err)
	}
}

// TestRouterZeroAlloc: the per-request fan-out hot path — request encode,
// response decode, exact reduce — runs allocation-free once the pooled
// buffers are warm.
func TestRouterZeroAlloc(t *testing.T) {
	p, test := buildShardPipeline(t, nil)
	const S, n = 2, 8
	imgs := tensor.FromSlice(batchOf(test, n), n, 3, 16, 16)
	parts := make([]*engine.PartialScores, S)
	frames := make([][]byte, S)
	var k, fullD int
	var version uint64
	for s := 0; s < S; s++ {
		e, err := engine.CompileShard(p, s, S)
		if err != nil {
			t.Fatal(err)
		}
		ps := e.NewPartials(0)
		if err := e.PartialInto(imgs, ps); err != nil {
			t.Fatal(err)
		}
		frames[s] = appendPartialResponse(nil, ps, e.ModelVersion())
		parts[s] = &engine.PartialScores{}
		k, fullD, version = e.Classes(), e.FullDim(), e.ModelVersion()
	}
	data := batchOf(test, n)
	var req []byte
	scores := make([]float64, n*k)
	preds := make([]int, n)
	hot := func() {
		req = appendPartialRequest(req[:0], data, n, version)
		for s := 0; s < S; s++ {
			if _, err := decodePartialResponse(parts[s], frames[s], n, k, fullD); err != nil {
				t.Fatal(err)
			}
		}
		if err := engine.MergeScores(preds, scores, parts); err != nil {
			t.Fatal(err)
		}
	}
	hot() // warm the buffers
	if allocs := testing.AllocsPerRun(100, hot); allocs != 0 {
		t.Fatalf("router hot path allocates %.1f times per request", allocs)
	}
}
