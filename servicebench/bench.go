package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// setupReps is how many times a run sets the stack up; setup_s is the
// median, and the last stack is the one measured.
const setupReps = 9

// bench is one invocation: a workload, a seed, and the run's settings.
type bench struct {
	w        *workload
	seed     uint64
	seconds  time.Duration
	traced   bool
	spansDir string
	spans    *spanLog // traced runs only
}

// rig is a set-up stack with its clients and their step streams.
type rig struct {
	w        *workload
	st       *stack
	clients  []*client
	churners []*churner
	reps     []wire.Report
	relBufs  [][]int64
	led      *ledger
	steps    int // client 0's completed steps (the replay length)
}

func (r *rig) close() error {
	for _, c := range r.clients {
		c.close()
	}
	return r.st.close()
}

// setup builds the stack and warms the clients up; it returns the rig
// and how long that took, up to the first timed request.
func (b *bench) setup() (*rig, time.Duration, error) {
	start := time.Now()
	st, err := startStack(topology{b.w.cells, b.w.replicas}, b.spans)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{w: b.w, st: st, led: newLedger(b.w.cells)}
	for i := 0; i < b.w.clients; i++ {
		r.clients = append(r.clients, newClient(st.front, b.spans, i))
		r.churners = append(r.churners, newChurner(b.w, b.seed, i))
	}
	r.reps = make([]wire.Report, b.w.clients)
	r.relBufs = make([][]int64, b.w.clients)
	warm := make([]*clientStats, b.w.clients)
	var wg sync.WaitGroup
	for i := range warm {
		warm[i] = new(clientStats)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for s := 0; s < b.w.warmSteps; s++ {
				r.step(i, warm[i])
			}
		}(i)
	}
	wg.Wait()
	for _, cs := range warm {
		if err := firstOf(cs.wrong, cs.firstErr); err != nil {
			_ = r.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, time.Since(start), nil
}

// clientStats is what one client saw in one phase.
type clientStats struct {
	allocs, rels   []time.Duration // each request's latency
	okAllocs       int64
	balls          int64 // granted
	failed         int64
	pending        int64
	excess, rounds int64
	firstErr       error // first failed op
	wrong          error // first incorrect output
}

// failedLatency stands for a failed op in the latency samples: it misses
// every latency target.
const failedLatency = time.Duration(math.MaxInt64)

func (cs *clientStats) fail(err error) {
	cs.failed++
	if cs.firstErr == nil {
		cs.firstErr = err
	}
}

func (cs *clientStats) incorrect(err error) {
	if cs.wrong == nil {
		cs.wrong = err
	}
}

// firstOf is the first non-nil error of errs.
func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// step is one closed-loop step of client i: release half of its live
// IDs, then allocate.
func (r *rig) step(i int, cs *clientStats) {
	r.release(i, cs)
	r.allocate(i, cs)
	if i == 0 {
		r.steps++
	}
}

// release sends client i's next release.
func (r *rig) release(i int, cs *clientStats) {
	ids := r.churners[i].releaseHalf(r.relBufs[i])
	r.relBufs[i] = ids
	if len(ids) == 0 {
		return
	}
	start := time.Now()
	n, err := r.clients[i].release(ids)
	if err != nil {
		cs.fail(err)
		cs.rels = append(cs.rels, failedLatency)
		return
	}
	cs.rels = append(cs.rels, time.Since(start))
	if err := r.led.release(len(ids), n); err != nil {
		cs.incorrect(err)
	}
}

// allocate sends client i's next allocate.
func (r *rig) allocate(i int, cs *clientStats) {
	k := r.churners[i].count()
	rep := &r.reps[i]
	start := time.Now()
	err := r.clients[i].allocate(k, rep)
	if err != nil {
		cs.fail(err)
		cs.allocs = append(cs.allocs, failedLatency)
		return
	}
	cs.allocs = append(cs.allocs, time.Since(start))
	cs.okAllocs++
	cs.balls += int64(rep.Admitted)
	if err := r.led.grant(k, rep); err != nil {
		cs.incorrect(err)
	}
	r.churners[i].grant(rep)
	cs.pending += int64(rep.Pending)
	cs.excess += rep.Excess
	cs.rounds += int64(rep.Rounds)
}

// migration is one cell move.
type migration struct {
	balls      int64
	total      time.Duration
	pause      time.Duration
	start, end time.Time
}

// phase is one timed phase's outcome.
type phase struct {
	wall      time.Duration // until the last client returned
	rssPeak   int64         // the process's peak resident set at the end
	cpu       time.Duration // the process's CPU time over the phase
	steal     time.Duration // the host's steal time over the phase, all CPUs
	clients   []*clientStats
	wireBytes int64 // request + reply bytes the clients moved
}

// runPhase drives the workload's closed loop for d.
func (b *bench) runPhase(r *rig, d time.Duration) *phase {
	ph := &phase{clients: make([]*clientStats, b.w.clients)}
	// Every phase starts from a collected heap, as Go's own benchmarks do,
	// so garbage left by set-up or an earlier phase is not charged to it.
	runtime.GC()
	var bytes0 int64
	for _, c := range r.clients {
		bytes0 += c.bytes
	}
	cpu0, steal0 := processCPU(), hostSteal()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i := range ph.clients {
		ph.clients[i] = new(clientStats)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(end) {
				r.step(i, ph.clients[i])
			}
		}(i)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu, ph.steal = processCPU()-cpu0, hostSteal()-steal0
	ph.rssPeak, _ = peakResidentBytes()
	for _, c := range r.clients {
		ph.wireBytes += c.bytes
	}
	ph.wireBytes -= bytes0
	return ph
}

// migrateCell moves cell g from its replica to the next one.
func migrateCell(st *stack, g int, spans *spanLog) (migration, error) {
	src, err := st.router.UpstreamIndex(st.router.Table()[g])
	if err != nil {
		return migration{}, err
	}
	dst := (src + 1) % len(st.svcs)
	var mg migration
	for _, ci := range st.svcs[src].Cells(false) {
		if ci.Cell == g {
			mg.balls = ci.Live
		}
	}
	mg.start = time.Now()
	pause, err := st.router.MigrateTimed(g, dst)
	mg.end = time.Now()
	if err != nil {
		return mg, fmt.Errorf("migrating cell %d to replica %d: %w", g, dst, err)
	}
	mg.total, mg.pause = mg.end.Sub(mg.start), pause
	if spans != nil {
		spans.add(0, layerMigrate, opMigrate, mg.start, mg.end)
	}
	return mg, nil
}

// totals folds a phase's client stats.
type totals struct {
	allocs, rels      []time.Duration
	attempted, failed int64
	balls, pending    int64
	excess, rounds    int64
	okAllocs          int64
	wrong             error // first incorrect output
	firstErr          error // first failed request
}

func (ph *phase) totals() totals {
	var t totals
	for _, cs := range ph.clients {
		t.allocs = append(t.allocs, cs.allocs...)
		t.rels = append(t.rels, cs.rels...)
		t.failed += cs.failed
		t.balls += cs.balls
		t.okAllocs += cs.okAllocs
		t.pending += cs.pending
		t.excess += cs.excess
		t.rounds += cs.rounds
		t.wrong = firstOf(t.wrong, cs.wrong)
		t.firstErr = firstOf(t.firstErr, cs.firstErr)
	}
	t.attempted = int64(len(t.allocs) + len(t.rels))
	return t
}

// replay re-runs client 0's sequential stream — the same seed, the same
// number of steps — against a fresh in-process serve.Service and returns
// its fingerprint. For a sequential workload it must equal the stack's.
func replay(w *workload, seed uint64, steps int) (string, error) {
	svc, err := serve.New(serve.Config{N: benchN, Shards: w.cells, Alg: benchAlg, Seed: benchServiceSeed})
	if err != nil {
		return "", err
	}
	defer svc.Close()
	ch := newChurner(w, seed, 0)
	var rep wire.Report
	var ids []int64
	for s := 0; s < steps; s++ {
		ids = ch.releaseHalf(ids)
		if len(ids) > 0 {
			if n := svc.Release(ids); n != len(ids) {
				return "", fmt.Errorf("replay step %d: released %d of %d", s, n, len(ids))
			}
		}
		if err := svc.AllocateInto(ch.count(), &rep); err != nil {
			return "", fmt.Errorf("replay step %d: %w", s, err)
		}
		ch.grant(&rep)
	}
	return svc.Fingerprint(), nil
}

// waitGoroutines waits for the goroutine count to fall to limit and
// returns the count it saw last.
func waitGoroutines(limit int, within time.Duration) int {
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}
