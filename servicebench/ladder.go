package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/online"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The cost ladder replays one sequential slice of the workload — the
// same seed, the same steps — through each layer in turn, from a fresh
// state each time. Every rung must end on the same fingerprint; each
// rung's increment over the one below it is that layer's self time.
var rungNames = []string{
	"online",      // L1 online.Allocator per cell, fed serve.SplitBalls shares
	"service",     // L2 serve.Service
	"handler",     // L3 serve.NewHandler in-process, no socket
	"loopback",    // L4 the handler over a loopback socket
	"router",      // L5 cluster.Router over loopback replicas
	"router_http", // L6 the router over HTTP
}

// target is one rung's data plane.
type target interface {
	allocate(k int, rep *wire.Report) error
	release(ids []int64) (int, error)
	fingerprint() (string, error)
	close() error
}

// rung is one rung's replay.
type rung struct {
	name           string
	alloc, release []time.Duration
	fp             string
}

func (r *rung) allocMeanMs() float64 { return meanMs(r.alloc) }
func (r *rung) opMeanMs() float64 {
	return meanMs(append(append([]time.Duration(nil), r.alloc...), r.release...))
}

func meanMs(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range v {
		s += d
	}
	return float64(s) / float64(len(v)) / 1e6
}

// ladder is the replay of every rung plus the counts measured inside
// the rungs.
type ladder struct {
	rungs  []*rung
	online engineCost   // L1
	router *routerProbe // L5
}

// engineCost is the time L1 spends inside online.Allocator's Allocate
// and Release, and the balls those calls handled.
type engineCost struct {
	epochTime, releaseTime   time.Duration
	epochBalls, releaseBalls int64
}

// routerProbe is what the L5 rung measures about the router.
type routerProbe struct {
	allocP50, releaseP50 time.Duration
	selfPerOp            time.Duration // router call time minus replica call time, per op
	routeMs, commitMs    float64
	upstreamPerOp        float64
	migrations           []migration
	snapshotBytes        float64
}

func (l *ladder) sameFingerprint() bool {
	for _, r := range l.rungs {
		if r.fp == "" || r.fp != l.rungs[0].fp {
			return false
		}
	}
	return len(l.rungs) == len(rungNames)
}

func (l *ladder) fingerprintDetail() string {
	var parts []string
	for _, r := range l.rungs {
		parts = append(parts, r.name+"="+short(r.fp))
	}
	return strings.Join(parts, " ")
}

// ladderReps is how many times each rung replays the slice, each time
// from a fresh state; the rung reports the replay with the median mean
// allocate time.
const ladderReps = 3

// rungRun is one replay of one rung, with what the rung measures inside.
type rungRun struct {
	r      *rung
	online engineCost   // L1 only
	router *routerProbe // L5 only
}

// runLadder replays the workload's slice through all six rungs.
func runLadder(w *workload, seed uint64) (*ladder, error) {
	lad := &ladder{}
	for _, name := range rungNames {
		var runs []*rungRun
		for i := 0; i < ladderReps; i++ {
			run, err := runRung(name, w, seed)
			if err != nil {
				return nil, fmt.Errorf("ladder %s: %w", name, err)
			}
			if len(runs) > 0 && run.r.fp != runs[0].r.fp {
				return nil, fmt.Errorf("ladder %s: replay %d ended on fingerprint %s, replay 1 on %s", name, i+1, short(run.r.fp), short(runs[0].r.fp))
			}
			runs = append(runs, run)
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].r.allocMeanMs() < runs[j].r.allocMeanMs() })
		m := runs[len(runs)/2]
		lad.rungs = append(lad.rungs, m.r)
		switch name {
		case "online":
			lad.online = m.online
		case "router":
			lad.router = m.router
		}
	}
	return lad, nil
}

// runRung builds rung name's target from a fresh state, replays the
// slice through it, and tears it down.
func runRung(name string, w *workload, seed uint64) (*rungRun, error) {
	var tg target
	var err error
	switch name {
	case "online":
		tg, err = newOnlineTarget(w.cells)
	case "service":
		tg, err = newServiceTarget(w.cells)
	case "handler":
		tg, err = newHandlerTarget(w.cells)
	case "loopback":
		tg, err = newClientTarget(topology{cells: w.cells})
	case "router":
		tg, err = newRouterTarget(topology{cells: w.cells, replicas: 2})
	case "router_http":
		tg, err = newClientTarget(topology{cells: w.cells, replicas: 2})
	}
	if err != nil {
		return nil, err
	}
	run := &rungRun{}
	run.r, err = replaySlice(w, seed, tg)
	if err == nil {
		run.r.name = name
		switch t := tg.(type) {
		case *onlineTarget:
			run.online = t.engineCost
		case *routerTarget:
			run.router, err = t.probe(run.r)
		}
	}
	if cerr := tg.close(); err == nil {
		err = cerr
	}
	return run, err
}

// replaySlice runs the slice — client 0's first sliceSteps steps —
// against tg, timing every call.
func replaySlice(w *workload, seed uint64, tg target) (*rung, error) {
	r := &rung{}
	ch := newChurner(w, seed, 0)
	var rep wire.Report
	var ids []int64
	for s := 0; s < w.sliceSteps; s++ {
		ids = ch.releaseHalf(ids)
		if len(ids) > 0 {
			start := time.Now()
			n, err := tg.release(ids)
			r.release = append(r.release, time.Since(start))
			if err != nil {
				return nil, err
			}
			if n != len(ids) {
				return nil, fmt.Errorf("step %d: released %d of %d", s, n, len(ids))
			}
		}
		k := ch.count()
		start := time.Now()
		err := tg.allocate(k, &rep)
		r.alloc = append(r.alloc, time.Since(start))
		if err != nil {
			return nil, err
		}
		if rep.Admitted != k {
			return nil, fmt.Errorf("step %d: admitted %d of %d", s, rep.Admitted, k)
		}
		ch.grant(&rep)
	}
	fp, err := tg.fingerprint()
	r.fp = fp
	return r, err
}

// onlineTarget is L1: one online.Allocator per cell, restored from a
// fresh service's cell snapshots (so each carries its cell's seed), fed
// the per-cell shares serve.SplitBalls draws for each request.
type onlineTarget struct {
	cells   int
	alg     string
	allocs  []*online.Allocator
	weights []float64
	rnd     rng.Rand
	counts  []int64
	next    uint64
	perCell [][]int64

	// Per-cell epoch results, written by one goroutine per cell.
	reps []*online.Report
	errs []error
	took []time.Duration

	engineCost
}

func newOnlineTarget(cells int) (*onlineTarget, error) {
	svc, err := serve.New(serve.Config{N: benchN, Shards: cells, Alg: benchAlg, Seed: benchServiceSeed})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	t := &onlineTarget{
		cells: cells, alg: svc.Alg(),
		weights: serve.CellWeights(benchN, cells),
		counts:  make([]int64, cells),
		perCell: make([][]int64, cells),
		reps:    make([]*online.Report, cells),
		errs:    make([]error, cells),
		took:    make([]time.Duration, cells),
	}
	for g := 0; g < cells; g++ {
		snap, err := svc.CellSnapshot(g)
		if err != nil {
			return nil, err
		}
		a, err := snap.Restore(online.Config{})
		if err != nil {
			return nil, err
		}
		t.allocs = append(t.allocs, a)
	}
	return t, nil
}

// allocate runs the targeted cells' epochs concurrently, one goroutine
// per cell, as the service's cell batchers do.
func (t *onlineTarget) allocate(k int, rep *wire.Report) error {
	rep.Reset()
	serve.SplitBalls(&t.rnd, benchServiceSeed, t.next, k, t.weights, t.counts)
	t.next++
	var wg sync.WaitGroup
	for g, c := range t.counts {
		if c == 0 {
			continue
		}
		wg.Add(1)
		go func(g int, c int64) {
			defer wg.Done()
			start := time.Now()
			t.reps[g], t.errs[g] = t.allocs[g].Allocate(int(c))
			t.took[g] = time.Since(start)
		}(g, c)
	}
	wg.Wait()
	for g, c := range t.counts {
		if c == 0 {
			continue
		}
		t.epochTime += t.took[g]
		t.epochBalls += c
		r, err := t.reps[g], t.errs[g]
		if err != nil {
			return err
		}
		rep.Admitted += r.Admitted
		rep.Spans = append(rep.Spans, wire.Span{Start: r.IDBase*int64(t.cells) + int64(g), Stride: int64(t.cells), Count: r.Admitted})
		rep.Pending += r.Pending
		rep.Cells++
		rep.Rounds = max(rep.Rounds, r.Rounds)
		rep.MaxLoad = max(rep.MaxLoad, r.MaxLoad)
		rep.Excess = max(rep.Excess, r.Excess)
	}
	return nil
}

// concurrentRelease is the release size from which the service releases
// its cells' shares concurrently (serve's inlineReleaseMax + 1).
const concurrentRelease = 513

// release partitions ids by cell and releases the cells' shares inline
// or, for large releases, concurrently, as the service does.
func (t *onlineTarget) release(ids []int64) (int, error) {
	for g := range t.perCell {
		t.perCell[g] = t.perCell[g][:0]
	}
	cells := int64(t.cells)
	for _, id := range ids {
		t.perCell[id%cells] = append(t.perCell[id%cells], id/cells)
	}
	released := make([]int, t.cells)
	var wg sync.WaitGroup
	for g, local := range t.perCell {
		if len(local) == 0 {
			continue
		}
		rel := func(g int, local []int64) {
			start := time.Now()
			released[g] = t.allocs[g].Release(local)
			t.took[g] = time.Since(start)
		}
		if len(ids) < concurrentRelease {
			rel(g, local)
			continue
		}
		wg.Add(1)
		go func(g int, local []int64) {
			defer wg.Done()
			rel(g, local)
		}(g, local)
	}
	wg.Wait()
	n := 0
	for g, local := range t.perCell {
		if len(local) > 0 {
			n += released[g]
			t.releaseTime += t.took[g]
		}
	}
	t.releaseBalls += int64(n)
	return n, nil
}

func (t *onlineTarget) fingerprint() (string, error) {
	fps := make([]string, t.cells)
	for g, a := range t.allocs {
		fps[g] = a.Fingerprint()
	}
	return serve.ClusterFingerprint(benchN, t.cells, t.alg, fps), nil
}

func (t *onlineTarget) close() error { return nil }

// serviceTarget is L2: serve.Service called in-process.
type serviceTarget struct{ svc *serve.Service }

func newServiceTarget(cells int) (*serviceTarget, error) {
	svc, err := serve.New(serve.Config{N: benchN, Shards: cells, Alg: benchAlg, Seed: benchServiceSeed})
	return &serviceTarget{svc}, err
}

func (t *serviceTarget) allocate(k int, rep *wire.Report) error { return t.svc.AllocateInto(k, rep) }
func (t *serviceTarget) release(ids []int64) (int, error)       { return t.svc.Release(ids), nil }
func (t *serviceTarget) fingerprint() (string, error)           { return t.svc.Fingerprint(), nil }
func (t *serviceTarget) close() error {
	if t.svc != nil {
		t.svc.Close()
	}
	return nil
}

// handlerTarget is L3: pba-serve's handler called in-process with
// recorded responses, no socket.
type handlerTarget struct {
	serviceTarget
	h   http.Handler
	out []byte
}

func newHandlerTarget(cells int) (*handlerTarget, error) {
	st, err := newServiceTarget(cells)
	if err != nil {
		return nil, err
	}
	return &handlerTarget{serviceTarget: *st, h: serve.NewHandler(st.svc, serve.HandlerConfig{})}, nil
}

func (t *handlerTarget) call(path string) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(t.out))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

func (t *handlerTarget) allocate(k int, rep *wire.Report) error {
	t.out = wire.AppendAllocateRequest(t.out[:0], k, true)
	body, err := t.call("/allocate")
	if err != nil {
		return err
	}
	return wire.ParseReport(body, rep)
}

func (t *handlerTarget) release(ids []int64) (int, error) {
	t.out = wire.AppendReleaseRequest(t.out[:0], ids)
	body, err := t.call("/release")
	if err != nil {
		return 0, err
	}
	return wire.ParseReleaseReply(body)
}

// clientTarget is L4 (one replica) or L6 (the router): a stack driven by
// the benchmark's client over loopback.
type clientTarget struct {
	st *stack
	c  *client
}

func newClientTarget(topo topology) (*clientTarget, error) {
	st, err := startStack(topo, nil)
	if err != nil {
		return nil, err
	}
	return &clientTarget{st: st, c: newClient(st.front, nil, 0)}, nil
}

func (t *clientTarget) allocate(k int, rep *wire.Report) error { return t.c.allocate(k, rep) }
func (t *clientTarget) release(ids []int64) (int, error)       { return t.c.release(ids) }
func (t *clientTarget) fingerprint() (string, error)           { return t.st.fingerprint() }
func (t *clientTarget) close() error {
	t.c.close()
	return t.st.close()
}

// routerTarget is L5: cluster.Router called in-process over loopback
// replicas whose data-plane calls are timed, so the router's own share
// can be separated from the replicas'.
type routerTarget struct {
	st     *stack
	spans  *spanLog
	before *observation
}

func newRouterTarget(topo topology) (*routerTarget, error) {
	spans := newSpanLog(1 << 16)
	st, err := startStack(topo, spans)
	if err != nil {
		return nil, err
	}
	t := &routerTarget{st: st, spans: spans, before: observe(st)}
	spans.setOn(true)
	return t, nil
}

func (t *routerTarget) allocate(k int, rep *wire.Report) error {
	return t.st.router.AllocateInto(k, rep)
}
func (t *routerTarget) release(ids []int64) (int, error) { return t.st.router.Release(ids), nil }
func (t *routerTarget) fingerprint() (string, error)     { return t.st.fingerprint() }
func (t *routerTarget) close() error                     { return t.st.close() }

// probe reads the router-layer numbers off the L5 replay, then probes
// migration on the same stack: one cell out and back.
func (t *routerTarget) probe(r *rung) (*routerProbe, error) {
	t.spans.setOn(false)
	after := observe(t.st)
	p := &routerProbe{
		allocP50:   quantile(append([]time.Duration(nil), r.alloc...), 0.5),
		releaseP50: quantile(append([]time.Duration(nil), r.release...), 0.5),
	}
	var routerTime, replicaTime time.Duration
	for _, d := range r.alloc {
		routerTime += d
	}
	for _, d := range r.release {
		routerTime += d
	}
	for _, s := range t.spans.snapshot() {
		if s.layer == layerReplica {
			replicaTime += time.Duration(s.end - s.start)
		}
	}
	ops := int64(len(r.alloc) + len(r.release))
	p.selfPerOp = (routerTime - replicaTime) / time.Duration(max(ops, 1))
	p.routeMs = stageDelta(after.front, t.before.front, "route").TotalSeconds * 1e3
	p.commitMs = stageDelta(after.front, t.before.front, "commit").TotalSeconds * 1e3
	p.upstreamPerOp = ratio(upstreamRequests(after)-upstreamRequests(t.before), float64(ops))
	migs, snapBytes, err := probeMigrations(t.st, nil)
	p.migrations, p.snapshotBytes = migs, snapBytes
	return p, err
}
