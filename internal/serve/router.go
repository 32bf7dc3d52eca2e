package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nshd/internal/engine"
)

// Router is the reduce side of the sharded serving tier: it fans a predict
// batch out to one replica of every dimension shard, add-reduces their raw
// partial scores with engine.MergeScores, and answers with predictions that
// are bit-identical to a single unsharded engine's (score additivity across
// disjoint D-slices; see internal/engine/shard.go for the math).
//
// Operational behavior, in the order it matters in production:
//
//   - Exactness or an explicit error, never a silent drop: a batch is
//     answered only when every shard slot contributed its slice. If a slot
//     has no usable replica the whole request fails loudly; the router never
//     fabricates a score from partial coverage.
//   - Replica health: consecutive failures eject a replica for a cooloff;
//     requests fail over to the slot's other replicas. An all-ejected slot is
//     still tried (ejection shapes preference, it never black-holes).
//   - Hedging: when a slot has spare replicas, a request that outlives the
//     hedge deadline launches a duplicate on the next replica and takes
//     whichever answers first.
//   - Version-gated rollout: every request pins the model version the router
//     currently targets; shard processes keep serving their pre-swap engine
//     (Batcher.EngineFor) until the router's poller has seen every slot
//     advertise the new version and flips the target. Rolling-restarting
//     shards one at a time therefore never mixes model versions inside one
//     reduce and never drops a request.
type Router struct {
	opts   RouterOptions
	client *http.Client

	slots     []*slot
	k         int
	sampleLen int
	fullD     int
	maxBatch  int
	packed    bool

	version atomic.Uint64 // model version pinned into every request

	met routerMetrics

	pool    sync.Pool // *routerScratch: per-request fan-out working set
	bufPool sync.Pool // *[]byte: per-attempt response frames

	stop     chan struct{}
	pollDone chan struct{}
}

// ErrShardUnavailable wraps every fan-out failure: some shard's D-slice
// could not be obtained, so the request was answered with an explicit error
// rather than a partial (silently wrong) reduce. Clients should back off
// and retry (HTTP 503).
var ErrShardUnavailable = errors.New("serve: shard slice unavailable")

// RouterOptions tune the router. The zero value asks for defaults.
type RouterOptions struct {
	// Timeout bounds one fan-out request end to end. Default 5s.
	Timeout time.Duration
	// PollInterval is the /healthz poll cadence that drives replica health
	// and version-gated rollout. Default 500ms; negative disables polling.
	PollInterval time.Duration
	// EjectAfter is the consecutive-failure count that ejects a replica.
	// Default 3.
	EjectAfter int
	// EjectCooloff is how long an ejected replica is deprioritized.
	// Default 2s.
	EjectCooloff time.Duration
	// Hedge is how long to wait on a slot's primary attempt before launching
	// a duplicate on another replica. 0 disables hedging.
	Hedge time.Duration
	// Client overrides the HTTP client (tests inject httptest transports).
	Client *http.Client
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.PollInterval == 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.EjectCooloff <= 0 {
		o.EjectCooloff = 2 * time.Second
	}
	return o
}

// replica is one shard process address plus its health/version state, all
// atomics so the poller, the data plane and metrics never share a lock.
type replica struct {
	addr string // base URL, e.g. http://127.0.0.1:9001

	fails        atomic.Int32  // consecutive data-plane failures
	ejectedUntil atomic.Int64  // unix nanos; 0 = in service
	healthy      atomic.Bool   // last poll reachable
	cur          atomic.Uint64 // model version the replica serves
	prev         atomic.Uint64 // pre-swap version it can still serve
}

// slot is one dimension shard: the column range [lo, hi) and the replicas
// that can score it.
type slot struct {
	lo, hi   int
	replicas []*replica
	rr       atomic.Uint32 // round-robin cursor
}

// routerScratch is one request's pooled working set: the encoded fan-out
// frame (shared by all shards), one PartialScores per slot, and the reduce
// buffers.
type routerScratch struct {
	req    []byte
	parts  []*engine.PartialScores
	merged []*engine.PartialScores
	scores []float64
	preds  []int
	errs   []error
}

// routerMetrics are the router's own counters, exposed on /metrics.
type routerMetrics struct {
	requests atomic.Int64
	samples  atomic.Int64
	errors   atomic.Int64
	retries  atomic.Int64 // failed attempts that moved to another replica
	hedges   atomic.Int64 // duplicate attempts launched by the hedge timer
	ejects   atomic.Int64
	flips    atomic.Int64 // version-target changes
}

// NewRouter handshakes every shard slot (addrs[i] lists the replica base
// URLs of shard i, in any slot order), validates that the slots tile one
// model's dimension range and agree on shape facts, picks the model version
// every slot can serve, and starts the health/rollout poller.
func NewRouter(addrs [][]string, opts RouterOptions) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one shard slot")
	}
	r := &Router{
		opts:     opts.withDefaults(),
		stop:     make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	r.client = r.opts.Client
	if r.client == nil {
		r.client = &http.Client{}
	}

	for si, reps := range addrs {
		if len(reps) == 0 {
			return nil, fmt.Errorf("serve: shard slot %d has no replicas", si)
		}
		sl := &slot{lo: -1}
		for _, a := range reps {
			sl.replicas = append(sl.replicas, &replica{addr: a})
		}
		// Handshake: poll every replica (the data plane checks each answer's
		// shard range anyway); the first reachable one defines the slot.
		var h *healthResponse
		var lastErr error
		for _, rep := range sl.replicas {
			hr, err := r.pollReplica(rep)
			if err != nil {
				lastErr = err
				continue
			}
			if h == nil {
				h = hr
			}
		}
		if h == nil {
			return nil, fmt.Errorf("serve: no replica of shard slot %d reachable: %w", si, lastErr)
		}
		sl.lo, sl.hi = h.ShardLo, h.ShardHi
		if r.fullD == 0 {
			r.fullD, r.k, r.sampleLen, r.maxBatch, r.packed = h.FullD, h.Classes, h.SampleLen, h.MaxBatch, h.Packed
		} else if h.FullD != r.fullD || h.Classes != r.k || h.SampleLen != r.sampleLen || h.Packed != r.packed {
			return nil, fmt.Errorf("serve: shard slot %d shape (D=%d K=%d len=%d packed=%v) disagrees with slot 0 (D=%d K=%d len=%d packed=%v)",
				si, h.FullD, h.Classes, h.SampleLen, h.Packed, r.fullD, r.k, r.sampleLen, r.packed)
		}
		if h.MaxBatch < r.maxBatch {
			r.maxBatch = h.MaxBatch // the fleet batch limit is the weakest shard's
		}
		r.slots = append(r.slots, sl)
	}
	sort.Slice(r.slots, func(i, j int) bool { return r.slots[i].lo < r.slots[j].lo })
	cursor := 0
	for _, sl := range r.slots {
		if sl.lo != cursor {
			return nil, fmt.Errorf("serve: shard slots do not tile [0,%d): gap/overlap at column %d (next slot starts at %d)", r.fullD, cursor, sl.lo)
		}
		cursor = sl.hi
	}
	if cursor != r.fullD {
		return nil, fmt.Errorf("serve: shard slots cover [0,%d) of [0,%d)", cursor, r.fullD)
	}

	v, err := r.commonVersion()
	if err != nil {
		return nil, err
	}
	r.version.Store(v)

	if r.opts.PollInterval > 0 {
		go r.pollLoop()
	} else {
		close(r.pollDone)
	}
	return r, nil
}

// Close stops the poller. In-flight requests finish on their own contexts.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.pollDone
}

// Shards reports the slot ranges in ascending column order.
func (r *Router) Shards() [][2]int {
	out := make([][2]int, len(r.slots))
	for i, sl := range r.slots {
		out[i] = [2]int{sl.lo, sl.hi}
	}
	return out
}

// Version is the model version the router currently pins into requests.
func (r *Router) Version() uint64 { return r.version.Load() }

// Classes, SampleLen, FullDim, MaxBatch report the fleet's shape facts.
func (r *Router) Classes() int   { return r.k }
func (r *Router) SampleLen() int { return r.sampleLen }
func (r *Router) FullDim() int   { return r.fullD }
func (r *Router) MaxBatch() int  { return r.maxBatch }

// Predict classifies n samples held flat in data, fanning out to every
// shard and reducing exactly. Convenience wrapper over PredictInto.
func (r *Router) Predict(ctx context.Context, data []float32, n int) ([]int, error) {
	preds := make([]int, n)
	if err := r.PredictInto(ctx, data, n, preds); err != nil {
		return nil, err
	}
	return preds, nil
}

// PredictInto classifies n samples into preds (length ≥ n) using pooled
// fan-out buffers. The answer is bit-identical to an unsharded engine's
// PredictInto, or an explicit error when any shard slice is unavailable —
// never a silently degraded score. Inputs holding NaN or ±Inf fail with
// ErrNonFinite before any shard is called.
func (r *Router) PredictInto(ctx context.Context, data []float32, n int, preds []int) error {
	if n < 1 || n > r.maxBatch {
		return fmt.Errorf("serve: router request of %d samples (want 1..%d)", n, r.maxBatch)
	}
	if len(data) != n*r.sampleLen {
		return fmt.Errorf("serve: router request data length %d, want %d samples × %d floats", len(data), n, r.sampleLen)
	}
	if len(preds) < n {
		return fmt.Errorf("serve: router preds length %d, want %d", len(preds), n)
	}
	// Refuse non-finite inputs here, before fan-out: every shard would answer
	// them with a 400, and each non-200 counts toward ejecting a replica.
	if err := checkFinite(data[:n*r.sampleLen], r.sampleLen); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	r.met.requests.Add(1)
	r.met.samples.Add(int64(n))

	sc := r.scratch()
	defer r.pool.Put(sc)
	version := r.version.Load()
	sc.req = appendPartialRequest(sc.req[:0], data[:n*r.sampleLen], n, version)

	var wg sync.WaitGroup
	for si := range r.slots {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sc.errs[si] = r.callSlot(ctx, r.slots[si], sc.req, sc.parts[si], version, n)
		}(si)
	}
	wg.Wait()
	for si, err := range sc.errs {
		if err != nil {
			r.met.errors.Add(1)
			return fmt.Errorf("%w: shard [%d,%d): %v", ErrShardUnavailable, r.slots[si].lo, r.slots[si].hi, err)
		}
	}
	sc.merged = append(sc.merged[:0], sc.parts...)
	if err := engine.MergeScores(sc.preds[:n], sc.scores[:n*r.k], sc.merged); err != nil {
		r.met.errors.Add(1)
		return fmt.Errorf("serve: reduce failed: %w", err)
	}
	copy(preds, sc.preds[:n])
	return nil
}

// scratch takes a request working set from the pool, sized for this router.
func (r *Router) scratch() *routerScratch {
	sc, _ := r.pool.Get().(*routerScratch)
	if sc == nil {
		sc = &routerScratch{}
	}
	for len(sc.parts) < len(r.slots) {
		sc.parts = append(sc.parts, &engine.PartialScores{})
	}
	sc.parts = sc.parts[:len(r.slots)]
	if cap(sc.errs) < len(r.slots) {
		sc.errs = make([]error, len(r.slots))
	}
	sc.errs = sc.errs[:len(r.slots)]
	for i := range sc.errs {
		sc.errs[i] = nil
	}
	need := r.maxBatch * r.k
	if cap(sc.scores) < need {
		sc.scores = make([]float64, need)
	}
	sc.scores = sc.scores[:need]
	if cap(sc.preds) < r.maxBatch {
		sc.preds = make([]int, r.maxBatch)
	}
	sc.preds = sc.preds[:r.maxBatch]
	return sc
}

// callSlot obtains one slot's partial scores: round-robin over non-ejected
// replicas, failing over on error, hedging a slow attempt onto the next
// replica when configured. The decoded partial is validated against the
// slot's range and the pinned version before it is accepted.
func (r *Router) callSlot(ctx context.Context, sl *slot, req []byte, ps *engine.PartialScores, version uint64, n int) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Preference order: start at the round-robin cursor, non-ejected first,
	// then ejected ones as a last resort (ejection must never black-hole).
	nr := len(sl.replicas)
	start := int(sl.rr.Add(1)-1) % nr
	order := make([]*replica, 0, nr)
	now := time.Now().UnixNano()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < nr; i++ {
			rep := sl.replicas[(start+i)%nr]
			if (rep.ejectedUntil.Load() > now) == (pass == 1) {
				order = append(order, rep)
			}
		}
	}

	resc := make(chan *attempt, nr)
	next := 0
	inflight := 0
	launch := func() {
		rep := order[next]
		next++
		inflight++
		go func() {
			a := &attempt{rep: rep, frame: r.getBuf()}
			a.err = r.fetchPartial(cctx, rep, req, a.frame)
			resc <- a
		}()
	}
	launch()

	var hedge <-chan time.Time
	if r.opts.Hedge > 0 && next < len(order) {
		t := time.NewTimer(r.opts.Hedge)
		defer t.Stop()
		hedge = t.C
	}

	var firstErr error
	for {
		select {
		case a := <-resc:
			inflight--
			if a.err == nil {
				served, err := decodePartialResponse(ps, *a.frame, n, r.k, r.fullD)
				r.putBuf(a.frame)
				if err == nil && (ps.Lo != sl.lo || ps.Hi != sl.hi) {
					err = fmt.Errorf("serve: replica %s answered for shard [%d,%d), slot is [%d,%d)", a.rep.addr, ps.Lo, ps.Hi, sl.lo, sl.hi)
				}
				if err == nil && version != 0 && served != version {
					err = fmt.Errorf("serve: replica %s served version %016x, pinned %016x", a.rep.addr, served, version)
				}
				if err == nil {
					a.rep.fails.Store(0)
					a.rep.ejectedUntil.Store(0)
					// Abandon any hedged duplicate still in flight.
					if inflight > 0 {
						go r.drain(resc, inflight)
					}
					return nil
				}
				a.err = err
			} else {
				r.putBuf(a.frame)
			}
			r.noteFailure(a.rep)
			if firstErr == nil {
				firstErr = a.err
			}
			if next < len(order) {
				r.met.retries.Add(1)
				launch()
			} else if inflight == 0 {
				return firstErr
			}
		case <-hedge:
			hedge = nil
			if next < len(order) {
				r.met.hedges.Add(1)
				launch()
			}
		case <-ctx.Done():
			if inflight > 0 {
				go r.drain(resc, inflight)
			}
			if firstErr != nil {
				return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), firstErr)
			}
			return ctx.Err()
		}
	}
}

// attempt is one replica fetch's outcome, owned by callSlot's select loop.
type attempt struct {
	rep   *replica
	frame *[]byte
	err   error
}

// drain reclaims the frames of abandoned attempts without blocking the
// request that already has its answer.
func (r *Router) drain(resc chan *attempt, inflight int) {
	for i := 0; i < inflight; i++ {
		a := <-resc
		r.putBuf(a.frame)
	}
}

// noteFailure records a data-plane failure and ejects the replica once the
// consecutive-failure threshold is crossed.
func (r *Router) noteFailure(rep *replica) {
	if int(rep.fails.Add(1)) >= r.opts.EjectAfter {
		if rep.ejectedUntil.Swap(time.Now().Add(r.opts.EjectCooloff).UnixNano()) == 0 {
			r.met.ejects.Add(1)
		}
	}
}

func (r *Router) getBuf() *[]byte {
	b, _ := r.bufPool.Get().(*[]byte)
	if b == nil {
		b = new([]byte)
	}
	return b
}

func (r *Router) putBuf(b *[]byte) { r.bufPool.Put(b) }

// fetchPartial POSTs the shared request frame to one replica and reads the
// raw response frame into *buf (reusing its capacity), with the response
// size capped before reading.
func (r *Router) fetchPartial(ctx context.Context, rep *replica, frame []byte, buf *[]byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+"/partial", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Cap the response read: header + the largest payload this fleet can
	// produce (float kernel, all blocks). A corrupt server cannot make the
	// router balloon.
	maxPayload := int64(partialRespHeaderLen) + int64(r.maxBatch)*int64(r.k)*int64((r.fullD+255)/256+1)*4
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("serve: replica %s: %s: %s", rep.addr, resp.Status, bytes.TrimSpace(msg))
	}
	*buf = (*buf)[:0]
	lr := io.LimitReader(resp.Body, maxPayload+1)
	for {
		if len(*buf) == cap(*buf) {
			*buf = append(*buf, 0)[:len(*buf)]
		}
		m, err := lr.Read((*buf)[len(*buf):cap(*buf)])
		*buf = (*buf)[:len(*buf)+m]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if int64(len(*buf)) > maxPayload {
		return fmt.Errorf("serve: replica %s response exceeds %d bytes", rep.addr, maxPayload)
	}
	return nil
}

// pollReplica GETs one replica's /healthz and updates its health/version
// state.
func (r *Router) pollReplica(rep *replica) (*healthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.addr+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		rep.healthy.Store(false)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rep.healthy.Store(false)
		return nil, fmt.Errorf("serve: replica %s: %s", rep.addr, resp.Status)
	}
	var h healthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		rep.healthy.Store(false)
		return nil, fmt.Errorf("serve: replica %s health: %w", rep.addr, err)
	}
	cur, err := strconv.ParseUint(h.ModelVersion, 16, 64)
	if err != nil {
		rep.healthy.Store(false)
		return nil, fmt.Errorf("serve: replica %s model_version %q: %w", rep.addr, h.ModelVersion, err)
	}
	var prev uint64
	if h.PrevVersion != "" {
		prev, _ = strconv.ParseUint(h.PrevVersion, 16, 64)
	}
	rep.cur.Store(cur)
	rep.prev.Store(prev)
	rep.healthy.Store(true)
	return &h, nil
}

// commonVersion picks the model version every slot can currently serve,
// preferring the one most replicas report as current. Errors when no single
// version is servable fleet-wide (a half-rolled fleet with no overlap).
func (r *Router) commonVersion() (uint64, error) {
	counts := map[uint64]int{}
	for _, sl := range r.slots {
		for _, rep := range sl.replicas {
			if rep.healthy.Load() {
				counts[rep.cur.Load()]++
			}
		}
	}
	var best uint64
	bestN := -1
	for v, c := range counts {
		if v == 0 {
			continue
		}
		if r.servableEverywhere(v) && (c > bestN || (c == bestN && v > best)) {
			best, bestN = v, c
		}
	}
	if bestN < 0 {
		return 0, fmt.Errorf("serve: no model version servable by every shard slot")
	}
	return best, nil
}

// servableEverywhere reports whether every slot has a healthy replica that
// can serve version v (as current or retained previous).
func (r *Router) servableEverywhere(v uint64) bool {
	for _, sl := range r.slots {
		ok := false
		for _, rep := range sl.replicas {
			if rep.healthy.Load() && (rep.cur.Load() == v || rep.prev.Load() == v) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// pollLoop drives health refresh and version-gated rollout: the target
// version flips to a new one only when EVERY slot has a healthy replica
// advertising it as current — the all-clear that a rolling restart has
// completed — so one reduce never mixes model versions.
func (r *Router) pollLoop() {
	defer close(r.pollDone)
	t := time.NewTicker(r.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.pollOnce()
		}
	}
}

// pollOnce refreshes every replica and advances the target version when the
// whole fleet agrees on a new current one.
func (r *Router) pollOnce() {
	for _, sl := range r.slots {
		for _, rep := range sl.replicas {
			r.pollReplica(rep)
		}
	}
	cur := r.version.Load()
	// Candidate: a version that every slot advertises as *current* on some
	// healthy replica. (Serving from prev is the transition crutch, not the
	// steady state.)
	candidate := uint64(0)
	for _, sl := range r.slots {
		slotCur := uint64(0)
		for _, rep := range sl.replicas {
			if rep.healthy.Load() {
				slotCur = rep.cur.Load()
				break
			}
		}
		if candidate == 0 {
			candidate = slotCur
		} else if slotCur != candidate {
			return // fleet not yet uniform; keep the pinned version
		}
	}
	if candidate == 0 || candidate == cur {
		return
	}
	// Every slot must advertise the candidate as current before the flip.
	for _, sl := range r.slots {
		ok := false
		for _, rep := range sl.replicas {
			if rep.healthy.Load() && rep.cur.Load() == candidate {
				ok = true
				break
			}
		}
		if !ok {
			return
		}
	}
	if r.version.CompareAndSwap(cur, candidate) {
		r.met.flips.Add(1)
	}
}
