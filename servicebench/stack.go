package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// teardownTimeout bounds closing one stack.
const teardownTimeout = 20 * time.Second

// topology is the shape of one stack: cells over one pba-serve
// (replicas == 0) or over that many -cluster replicas behind a router.
type topology struct {
	cells, replicas int
}

// stack is the serving stack of one run, composed as cmd/pba-serve and
// cmd/pba-router compose it with their default flags.
type stack struct {
	svcs    []*serve.Service
	urls    []string // replica base URLs, parallel to svcs
	router  *cluster.Router
	front   string // base URL the clients talk to
	servers []*http.Server
	serving sync.WaitGroup // the servers' Serve goroutines

	// Each replica's registry holding the HTTP layer's decode and encode
	// stages and path counters (in a traced stack, the timing wrapper's).
	replicaRegs []*obs.Registry
}

// startStack builds a stack. With spans non-nil the data-plane calls are
// routed through the benchmark's timing wrappers and recorded there.
func startStack(topo topology, spans *spanLog) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	nsvc := topo.replicas
	if nsvc == 0 {
		nsvc = 1
	}
	for i := 0; i < nsvc; i++ {
		cfg := serve.Config{N: benchN, Shards: topo.cells, Alg: benchAlg, Seed: benchServiceSeed}
		if topo.replicas > 0 {
			// pba-serve -cluster: host no cells until the router attaches them.
			cfg.Host = []int{}
		}
		svc, err := serve.New(cfg)
		if err != nil {
			return st, err
		}
		st.svcs = append(st.svcs, svc)
		h, reg := replicaHandler(svc, spans)
		if spans != nil && topo.replicas == 0 {
			h = idHandler(h, spans)
		}
		url, err := st.serve(h)
		if err != nil {
			return st, err
		}
		st.urls = append(st.urls, url)
		st.replicaRegs = append(st.replicaRegs, reg)
	}
	if topo.replicas == 0 {
		st.front = st.urls[0]
		return st, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	self := "http://" + ln.Addr().String()
	st.router, err = cluster.New(cluster.Config{
		N: benchN, Cells: topo.cells, Alg: benchAlg, Seed: benchServiceSeed,
		Upstreams: st.urls, SelfURL: self,
	})
	if err != nil {
		_ = ln.Close()
		return st, fmt.Errorf("router bootstrap: %w", err)
	}
	var backend serve.Backend = st.router
	if spans != nil {
		backend = &timedBackend{b: st.router, spans: spans, layer: layerRouter}
	}
	var h http.Handler = serve.NewBackendHandler(backend, st.router.Metrics(), serve.HandlerConfig{})
	if spans != nil {
		h = idHandler(h, spans)
	}
	st.front = self
	st.serveOn(ln, h)
	return st, nil
}

// replicaHandler is pba-serve's handler. Traced, /allocate and /release
// go through the timing wrapper — mounted with serve.NewBackendHandler
// on a registry of its own — in front of serve.NewHandler, which keeps
// every other endpoint.
func replicaHandler(svc *serve.Service, spans *spanLog) (http.Handler, *obs.Registry) {
	plain := serve.NewHandler(svc, serve.HandlerConfig{})
	if spans == nil {
		return plain, svc.Metrics()
	}
	reg := obs.NewRegistry()
	timed := serve.NewBackendHandler(&timedBackend{b: svc, spans: spans, layer: layerReplica}, reg, serve.HandlerConfig{})
	mux := http.NewServeMux()
	mux.Handle("/allocate", timed)
	mux.Handle("/release", timed)
	mux.Handle("/", plain)
	return mux, reg
}

func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	st.serveOn(ln, h)
	return "http://" + ln.Addr().String(), nil
}

func (st *stack) serveOn(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
}

// close tears the stack down — router, servers, services — and waits
// for the servers' goroutines. It fails if teardown overstays its bound.
func (st *stack) close() error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if st.router != nil {
			st.router.Close()
		}
		for i := len(st.servers) - 1; i >= 0; i-- {
			_ = st.servers[i].Close()
		}
		st.serving.Wait()
		for _, svc := range st.svcs {
			svc.Close()
		}
	}()
	select {
	case <-done:
		return nil
	case <-time.After(teardownTimeout):
		return errors.New("stack teardown exceeded its bound")
	}
}

// live is the live-ball count the stack itself reports.
func (st *stack) live() (int64, error) {
	if st.router == nil {
		return st.svcs[0].StatsLite().Live, nil
	}
	doc, ok := st.router.StatsDoc(false).(cluster.Stats)
	if !ok {
		return 0, errors.New("router stats: unexpected document type")
	}
	for _, u := range doc.Upstreams {
		if !u.Healthy {
			return 0, fmt.Errorf("router stats: upstream %s unhealthy", u.URL)
		}
	}
	return doc.Live, nil
}

// fingerprint is the stack's full-state fingerprint.
func (st *stack) fingerprint() (string, error) {
	if st.router == nil {
		return st.svcs[0].Fingerprint(), nil
	}
	return st.router.Fingerprint()
}

// Span layers and operations.
const (
	layerClient  = iota // the client call, request write to reply parsed
	layerFront          // the front handler (router or lone replica), by request ID
	layerRouter         // the router's serve.Backend calls
	layerReplica        // the replicas' serve.Service data-plane calls
	layerMigrate        // Router.MigrateTimed
	numLayers
)

var layerNames = [numLayers]string{"client", "front", "router", "replica", "migrate"}

const (
	opAllocate = iota
	opRelease
	opBatch
	opMigrate
	opOther
)

var opNames = []string{"allocate", "release", "batch", "migrate", "other"}

// span is one timed call. Times are nanoseconds since the log's base.
type span struct {
	id         uint64 // client request ID; 0 where the ID cannot reach
	layer, op  uint8
	start, end int64
}

// spanLog keeps spans in memory until the run writes them out. It records
// only while on; past its capacity it counts drops instead of growing.
type spanLog struct {
	base    time.Time
	mu      sync.Mutex
	on      bool
	spans   []span
	dropped int64
}

// spanCap bounds a traced run's span log.
const spanCap = 1 << 20

func newSpanLog(capacity int) *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (l *spanLog) setOn(on bool) {
	l.mu.Lock()
	l.on = on
	l.mu.Unlock()
}

func (l *spanLog) add(id uint64, layer, op uint8, start, end time.Time) {
	l.mu.Lock()
	if l.on {
		if len(l.spans) < cap(l.spans) {
			l.spans = append(l.spans, span{id, layer, op, int64(start.Sub(l.base)), int64(end.Sub(l.base))})
		} else {
			l.dropped++
		}
	}
	l.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// timedBackend is the benchmark's timing wrapper around a serve.Backend
// (a replica's Service or the router). It also implements
// serve.BatchBackend, so a batch frame keeps the replica's shared-epoch
// path instead of falling back to one call per sub-request.
type timedBackend struct {
	b     serve.Backend
	spans *spanLog
	layer uint8
}

func (t *timedBackend) AllocateInto(k int, rep *serve.Report) error {
	start := time.Now()
	err := t.b.AllocateInto(k, rep)
	t.spans.add(0, t.layer, opAllocate, start, time.Now())
	return err
}

func (t *timedBackend) AllocateCellsInto(pairs []wire.CellCount, rep *serve.Report) error {
	start := time.Now()
	err := t.b.AllocateCellsInto(pairs, rep)
	t.spans.add(0, t.layer, opAllocate, start, time.Now())
	return err
}

func (t *timedBackend) AllocateCellsBatch(items []serve.CellBatchItem) {
	start := time.Now()
	if bb, ok := t.b.(serve.BatchBackend); ok {
		bb.AllocateCellsBatch(items)
	} else {
		for i := range items {
			items[i].Err = t.b.AllocateCellsInto(items[i].Pairs, items[i].Rep)
		}
	}
	t.spans.add(0, t.layer, opBatch, start, time.Now())
}

func (t *timedBackend) Release(ids []int64) int {
	start := time.Now()
	n := t.b.Release(ids)
	t.spans.add(0, t.layer, opRelease, start, time.Now())
	return n
}

func (t *timedBackend) StatsDoc(fingerprint bool) any { return t.b.StatsDoc(fingerprint) }
func (t *timedBackend) HealthDoc() any                { return t.b.HealthDoc() }

// requestIDHeader carries the client's request ID to the front handler.
const requestIDHeader = "X-Bench-Request"

// idHandler is the benchmark's handler wrapper on the front process: it
// reads the client's request ID and records the handler span under it.
func idHandler(next http.Handler, spans *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		op := uint8(opOther)
		switch r.URL.Path {
		case "/allocate":
			op = opAllocate
		case "/release":
			op = opRelease
		}
		spans.add(id, layerFront, op, start, time.Now())
	})
}
