package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// rawPlane is the upstream protocol with none of the router's
// orchestration: its own frame stream per upstream of a router's replica
// set, a fixed even split of each request over the cells, one
// single-sub batch frame per upstream carrying a cell allocate, then one
// carrying a release of the IDs that upstream granted. Each exchange
// writes every upstream's frame before reading any reply. Every upstream
// must host at least one cell.
type rawPlane struct {
	r      *Router
	conns  []*conn
	frames [][]byte
	pairs  [][]wire.CellCount
	reps   []serve.Report
	ids    [][]int64
	subs   []wire.BatchSubReply
}

// newRawPlane dials the plane's streams (closed via tb.Cleanup) and
// splits batch over r's cells as r's table places them.
func newRawPlane(tb testing.TB, r *Router, batch int) *rawPlane {
	p := &rawPlane{
		r:      r,
		conns:  make([]*conn, len(r.ups)),
		frames: make([][]byte, len(r.ups)),
		pairs:  make([][]wire.CellCount, len(r.ups)),
		reps:   make([]serve.Report, len(r.ups)),
		ids:    make([][]int64, len(r.ups)),
	}
	for u, up := range r.ups {
		c, err := up.dial()
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = c.nc.Close() })
		p.conns[u] = c
	}
	cells := len(r.table)
	for g := range r.table {
		k := batch / cells
		if g < batch%cells {
			k++
		}
		u := r.table[g].Load()
		p.pairs[u] = append(p.pairs[u], wire.CellCount{Cell: g, Count: k})
	}
	return p
}

// exchange writes each upstream's frame from fill, then reads every
// reply and hands its one sub-reply frame to take.
func (p *rawPlane) exchange(fill func(u int, f []byte) []byte, take func(u int, sub []byte) error) error {
	for u, c := range p.conns {
		f := wire.AppendBatchTag(wire.BeginBatchRequest(p.frames[u][:0]), 0)
		p.frames[u] = wire.FinishBatch(fill(u, f), 0, 1)
		if _, err := c.nc.Write(p.frames[u]); err != nil {
			return err
		}
	}
	for u, c := range p.conns {
		reply, _, err := c.receive(serve.MaxBody)
		if err == nil {
			p.subs, err = wire.ParseBatchReply(reply, p.subs[:0])
		}
		if err == nil && (len(p.subs) != 1 || p.subs[0].Status != 0) {
			err = fmt.Errorf("upstream %d: batch reply %+v", u, p.subs)
		}
		if err == nil {
			err = take(u, p.subs[0].Frame)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// round plays one allocate+release round and returns the balls moved.
func (p *rawPlane) round() (int, error) {
	err := p.exchange(func(u int, f []byte) []byte {
		return wire.AppendCellAllocateRequest(f, p.pairs[u], true)
	}, func(u int, sub []byte) error {
		if err := wire.ParseReport(sub, &p.reps[u]); err != nil {
			return err
		}
		p.ids[u] = p.reps[u].AppendIDs(p.ids[u][:0])
		return nil
	})
	if err != nil {
		return 0, err
	}
	moved := 0
	err = p.exchange(func(u int, f []byte) []byte {
		return wire.AppendReleaseRequest(f, p.ids[u])
	}, func(u int, sub []byte) error {
		k, err := wire.ParseReleaseReply(sub)
		if err == nil && k != len(p.ids[u]) {
			err = fmt.Errorf("released %d of %d", k, len(p.ids[u]))
		}
		moved += k
		return err
	})
	return moved, err
}

// routedClient returns one client's allocate+release round through r,
// reporting the balls it moved.
func routedClient(r *Router, batch int) func() (int, error) {
	rep := new(serve.Report)
	var ids []int64
	return func() (int, error) {
		if err := r.AllocateInto(batch, rep); err != nil {
			return 0, err
		}
		ids = rep.AppendIDs(ids[:0])
		if got := r.Release(ids); got != len(ids) {
			return 0, fmt.Errorf("released %d of %d", got, len(ids))
		}
		return len(ids), nil
	}
}

// forwardPlanes builds the two measurement closures the allocation split
// reads from, over one shared replica pair: the raw upstream protocol
// (rawPlane) and the router. Each closure plays one warm
// allocate+release round; the router and replicas are torn down via
// tb.Cleanup.
func forwardPlanes(tb testing.TB) (baseline, routed func()) {
	const n, cells, batch = 256, 4, 64
	ups := make([]string, 2)
	for i := range ups {
		_, ups[i] = emptyReplica(tb, n, cells, 2)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 2, Upstreams: ups, Terse: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	raw, play := newRawPlane(tb, r, batch), routedClient(r, batch)
	baseline = func() {
		if _, err := raw.round(); err != nil {
			tb.Fatal(err)
		}
	}
	routed = func() {
		if _, err := play(); err != nil {
			tb.Fatal(err)
		}
	}
	return baseline, routed
}

// TestRouterForwardAllocFree: in steady state the router's binary
// forward path — split draw, group-commit writer, batch codec, demux,
// reply merge — adds zero allocations per allocate/release round trip
// on top of what the raw upstream protocol costs (same replicas, same
// nested frames, no router logic). Both sides of the comparison include
// the replicas' server-side work, so the delta isolates the router.
func TestRouterForwardAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	baseline, routed := forwardPlanes(t)
	// Warm pools, connections, and slice capacities on both paths.
	for i := 0; i < 50; i++ {
		baseline()
		routed()
	}
	base := testing.AllocsPerRun(200, baseline)
	via := testing.AllocsPerRun(200, routed)
	if delta := via - base; delta >= 1 {
		t.Errorf("router forward path adds %.2f allocs/op (router %.2f, raw upstream %.2f); want 0",
			delta, via, base)
	}
}

// BenchmarkRouterAllocSplit pins the ClusterThroughput allocation story
// as dedicated record columns: raw_allocs/op is what the upstream
// protocol itself costs per round (dominated by the in-process replica
// servers' net/http request machinery — the bench-harness side of the
// split), and router_delta_allocs/op is the router's own addition over
// it, held at zero. Counts come from testing.AllocsPerRun inside one
// iteration, so ns/op is not meaningful here; read the custom columns.
func BenchmarkRouterAllocSplit(b *testing.B) {
	if raceEnabled {
		b.Skip("race instrumentation allocates; counts are meaningless")
	}
	baseline, routed := forwardPlanes(b)
	for i := 0; i < 50; i++ {
		baseline()
		routed()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := testing.AllocsPerRun(100, baseline)
		b.ReportMetric(base, "raw_allocs/op")
		b.ReportMetric(testing.AllocsPerRun(100, routed)-base, "router_delta_allocs/op")
	}
}

// BenchmarkClusterThroughput drives the router from GOMAXPROCS
// concurrent clients over 1, 2, and 3 replicas hosting the same 6-cell
// topology — the cluster scaling claim (3-replica vs 1-replica balls/s)
// reads straight off the replicas=N variants. Replicas are real
// processes' worth of serving stack (TCP, HTTP, binary protocol); only
// process isolation is elided.
func BenchmarkClusterThroughput(b *testing.B) {
	const n, cells, batch = 1024, 6, 512
	for _, replicas := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			ups := make([]string, replicas)
			for i := range ups {
				_, ups[i] = emptyReplica(b, n, cells, 1)
			}
			r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: ups, Terse: true})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			var balls atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rep := new(serve.Report)
				var ids []int64
				for pb.Next() {
					if err := r.AllocateInto(batch, rep); err != nil {
						b.Error(err)
						return
					}
					ids = rep.AppendIDs(ids[:0])
					if got := r.Release(ids); got != len(ids) {
						b.Errorf("released %d of %d", got, len(ids))
						return
					}
					balls.Add(int64(len(ids)))
				}
			})
			b.StopTimer()
			st, ok := r.StatsDoc(false).(Stats)
			if !ok || st.Live != 0 {
				b.Fatalf("bench left %d balls live", st.Live)
			}
			b.ReportMetric(float64(balls.Load())/b.Elapsed().Seconds(), "balls/s")
		})
	}
}

// BenchmarkClusterGroupCommit is the group-commit claim as a grid:
// clients × replicas × plane, same topology and batch size everywhere.
// plane=router is the router; plane=raw gives each client its own
// rawPlane — per-request frames on its own connections, no router split
// or merge: one upstream round trip per request per replica, which is
// what the router costs without coalescing, minus its own work. With one client
// the router's window never engages and frames carry one sub; with many
// clients the writer coalesces concurrent submissions into multi-sub
// frames, and the router/raw balls/s ratio at replicas>=2 is the
// headline speedup. Clients are explicit goroutines sharing b.N through
// an atomic counter — RunParallel would cap the client count at
// GOMAXPROCS, which is 1 on small CI boxes.
func BenchmarkClusterGroupCommit(b *testing.B) {
	const n, cells, batch = 1024, 6, 64
	for _, clients := range []int{1, 8} {
		for _, replicas := range []int{1, 2, 3} {
			for _, plane := range []string{"raw", "router"} {
				name := fmt.Sprintf("clients=%d/replicas=%d/plane=%s", clients, replicas, plane)
				b.Run(name, func(b *testing.B) {
					ups := make([]string, replicas)
					for i := range ups {
						_, ups[i] = emptyReplica(b, n, cells, 1)
					}
					r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: ups, Terse: true})
					if err != nil {
						b.Fatal(err)
					}
					defer r.Close()
					// Clients are built (and raw ones dialed) before the timer.
					plays := make([]func() (int, error), clients)
					for c := range plays {
						if plane == "raw" {
							plays[c] = newRawPlane(b, r, batch).round
						} else {
							plays[c] = routedClient(r, batch)
						}
					}
					var balls atomic.Int64
					var iters atomic.Int64
					iters.Store(int64(b.N))
					var wg sync.WaitGroup
					b.ReportAllocs()
					b.ResetTimer()
					for _, play := range plays {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for iters.Add(-1) >= 0 {
								k, err := play()
								if err != nil {
									b.Error(err)
									return
								}
								balls.Add(int64(k))
							}
						}()
					}
					wg.Wait()
					b.StopTimer()
					st, ok := r.StatsDoc(false).(Stats)
					if !ok || st.Live != 0 {
						b.Fatalf("bench left %d balls live", st.Live)
					}
					b.ReportMetric(float64(balls.Load())/b.Elapsed().Seconds(), "balls/s")
				})
			}
		}
	}
}

// migrateFullLock moves cell g to dst with the whole two-phase protocol
// — begin, stage, cut, commit and the table flip — under g's gate write
// lock, so the pause spans the O(live) snapshot transfer. It is the
// baseline BenchmarkMigrationPause measures MigrateTimed's pause
// against; the lite detach runs after the gate reopens, as in
// MigrateTimed.
func migrateFullLock(r *Router, g, dst int) (time.Duration, error) {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	src := int(r.table[g].Load())
	t0 := time.Now()
	r.gates[g].Lock()
	frame, err := r.migrateBegin(src, g)
	if err == nil {
		err = r.shipFrame(dst, "/cells/stage", frame)
	}
	if err == nil {
		_, err = r.cutAndCommit(src, dst, g)
	}
	if err == nil {
		r.table[g].Store(int32(dst))
	}
	r.gates[g].Unlock()
	pause := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return pause, r.postJSON(r.ups[src].base, "/cells/detach", fmt.Sprintf(`{"cell":%d,"lite":true}`, g), nil)
}

// BenchmarkMigrationPause measures the data-plane pause one cell move
// inflicts — the window in which the moving cell's forwarding gate is
// write-locked — for the two-phase delta protocol against the same
// protocol run entirely under the lock (migrateFullLock), across cell
// sizes. The contract under test: the delta pause tracks the traffic
// since the snapshot (zero here), not the balls in the cell, so pause_ns
// stays flat as balls grows while fulllock grows with the O(live)
// transfer it keeps under the lock. Each iteration still pays the full
// copy off-lock; pause_ns is the figure of merit, not ns/op.
func BenchmarkMigrationPause(b *testing.B) {
	for _, balls := range []int{10_000, 100_000, 1_000_000} {
		for _, mode := range []string{"delta", "fulllock"} {
			b.Run(fmt.Sprintf("balls=%d/mode=%s", balls, mode), func(b *testing.B) {
				// One cell, so the whole population rides the moving cell.
				const n = 1024
				ups := make([]string, 2)
				for i := range ups {
					_, ups[i] = emptyReplica(b, n, 1, 3)
				}
				r, err := New(Config{N: n, Cells: 1, Alg: "aheavy", Seed: 3, Upstreams: ups, Terse: true})
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close()
				rep := new(serve.Report)
				for placed := 0; placed < balls; {
					k := balls - placed
					if k > 8192 {
						k = 8192
					}
					if err := r.AllocateInto(k, rep); err != nil {
						b.Fatal(err)
					}
					placed += k
				}
				migrate := r.MigrateTimed
				if mode == "fulllock" {
					migrate = func(g, dst int) (time.Duration, error) { return migrateFullLock(r, g, dst) }
				}
				var total time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pause, err := migrate(0, 1-int(r.table[0].Load()))
					if err != nil {
						b.Fatal(err)
					}
					total += pause
				}
				b.StopTimer()
				b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "pause_ns")
			})
		}
	}
}
