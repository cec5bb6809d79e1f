package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"

	"repro/internal/wire"
)

// Every workload runs the paper's algorithm at n = 1024 bins.
const (
	benchN   = 1024
	benchAlg = "aheavy"
	// benchServiceSeed is the service seed: pba-serve's and pba-router's
	// default -seed. The workload seed drives the traffic, not the service.
	benchServiceSeed = 1
)

// workload is one traffic mix over one topology.
type workload struct {
	name string
	why  string

	// Topology: cells is the cell count (the replicas' -shards and the
	// router's -cells); replicas > 0 puts that many -cluster replicas
	// behind a router, replicas == 0 serves one pba-serve directly.
	cells, replicas int

	// Traffic: each client step releases half of that client's live IDs,
	// chosen by the seed, then allocates a seeded size in [minK, maxK].
	clients    int
	minK, maxK int
	// warmSteps are untimed steps per client during set-up.
	warmSteps int

	// sliceSteps is the cost ladder's sequential slice: the first
	// sliceSteps steps of client 0's stream.
	sliceSteps int

	// procs is the run's GOMAXPROCS; 0 keeps Go's default, one per CPU.
	procs int
}

var workloads = map[string]*workload{
	// Why: per-request cost dominates here. A prototype on a
	// 2-CPU box measured allocate p50 at ~0.28-0.30 ms for ~16 balls per
	// cell, so HTTP, wire, the router and loopback TCP do most of the
	// work and the engine does little. Two clients is the least
	// concurrency at which the cell batcher and group commit can
	// coalesce.
	//
	// The whole process runs on one P (GOMAXPROCS=1). Load generator,
	// router and replicas hand every request back and forth; on two Ps
	// each hand-off is a cross-CPU wake-up, and what those cost depends
	// on what else the host runs: with a busy-loop taking one of a 2-CPU
	// box's CPUs, the CPU the stack spent per ball fell from ~8 to ~6 us.
	// On one P it stayed within the run-to-run spread.
	"cluster-churn": {
		name:  "cluster-churn",
		why:   "per-request cost dominates (prototype: allocate p50 ~0.28-0.30 ms at ~16 balls/cell): router, HTTP, wire, loopback TCP; 2 closed-loop clients on one P, the least that can coalesce",
		cells: 4, replicas: 2,
		clients: 2, minK: 1, maxK: 128,
		warmSteps:  200,
		sliceSteps: 1000,
		procs:      1,
	},
	// Why: the engine epoch dominates. In a prototype, ~9.4 ms of a ~10 ms
	// allocate was the cell's online.Allocator.Allocate on the agent
	// engine (core/sim). The router is bypassed. The 512 KiB release
	// frames use wire and online release differently from
	// cluster-churn. With one client the trace is sequential, so its
	// final fingerprint is checked against an in-process replay.
	"replica-heavy": {
		name:  "replica-heavy",
		why:   "the engine epoch dominates (prototype: ~9.4 of ~10 ms per allocate in online.Allocator): 1 pba-serve, 2 shards, 65536-ball allocates at ~131k live (m/n ~ 128); sequential, fingerprint replayed",
		cells: 2, replicas: 0,
		clients: 1, minK: 1 << 16, maxK: 1 << 16,
		warmSteps:  8,
		sliceSteps: 48,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// churner is one client's step stream: the live IDs it holds and the
// seeded draws that pick allocate sizes and released IDs. Given the same
// seed and the same grants it makes the same requests, which is what
// lets a sequential trace be replayed.
type churner struct {
	w    *workload
	rnd  *rand.Rand
	live []int64
}

func newChurner(w *workload, seed uint64, client int) *churner {
	return &churner{w: w, rnd: rand.New(rand.NewPCG(seed, 0x5EB1+uint64(client)))}
}

// count draws the next allocate size.
func (c *churner) count() int {
	if c.w.maxK == c.w.minK {
		return c.w.minK
	}
	return c.w.minK + c.rnd.IntN(c.w.maxK-c.w.minK+1)
}

// releaseHalf removes half of the live IDs, chosen by the seed, and
// returns them in dst.
func (c *churner) releaseHalf(dst []int64) []int64 {
	h := len(c.live) / 2
	for i := 0; i < h; i++ {
		j := i + c.rnd.IntN(len(c.live)-i)
		c.live[i], c.live[j] = c.live[j], c.live[i]
	}
	dst = append(dst[:0], c.live[:h]...)
	c.live = append(c.live[:0], c.live[h:]...)
	return dst
}

// grant adds an allocate reply's IDs to the live set.
func (c *churner) grant(rep *wire.Report) {
	c.live = rep.AppendIDs(c.live)
}

// ledger checks every grant and release the clients see: each granted
// ID is new, and the granted and released totals are kept for the
// conservation check. Per cell it keeps the granted local IDs (id /
// cells) as ranges; the service hands them out densely, so the ranges
// merge and the check's memory does not grow with the run.
type ledger struct {
	mu       sync.Mutex
	cells    int64
	seen     []idRanges
	granted  int64
	released int64
	dups     int64
}

func newLedger(cells int) *ledger {
	return &ledger{cells: int64(cells), seen: make([]idRanges, cells)}
}

// grant records rep's IDs and reports an error for a negative ID or an
// admitted count that disagrees with the request; reused IDs are
// counted in dups.
func (l *ledger) grant(k int, rep *wire.Report) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, sp := range rep.Spans {
		if sp.Count > 0 && sp.Start >= 0 && sp.Stride == l.cells {
			// One cell's consecutive local IDs.
			local := sp.Start / l.cells
			l.dups += l.seen[sp.Start%l.cells].add(local, local+int64(sp.Count))
		} else {
			id := sp.Start
			for j := 0; j < sp.Count; j++ {
				if id < 0 {
					return fmt.Errorf("granted negative ID %d", id)
				}
				l.dups += l.seen[id%l.cells].add(id/l.cells, id/l.cells+1)
				id += sp.Stride
			}
		}
		n += sp.Count
	}
	l.granted += int64(n)
	if n != k || rep.Admitted != k {
		return fmt.Errorf("asked for %d balls, admitted %d with %d IDs in spans", k, rep.Admitted, n)
	}
	return nil
}

// idRanges is a set of IDs held as sorted, disjoint, non-touching
// half-open ranges.
type idRanges []idRange

type idRange struct{ lo, hi int64 }

// add puts [lo, hi) into the set and returns how many of those IDs it
// held already.
func (s *idRanges) add(lo, hi int64) int64 {
	r := *s
	// r[i:j] are the ranges that overlap or touch [lo, hi).
	i := sort.Search(len(r), func(i int) bool { return r[i].hi >= lo })
	j, dup := i, int64(0)
	merged := idRange{lo, hi}
	for ; j < len(r) && r[j].lo <= hi; j++ {
		dup += max(0, min(hi, r[j].hi)-max(lo, r[j].lo))
		merged = idRange{min(merged.lo, r[j].lo), max(merged.hi, r[j].hi)}
	}
	if i == j {
		r = append(r, idRange{})
		copy(r[i+1:], r[i:])
	} else {
		r = append(r[:i+1], r[j:]...)
	}
	r[i] = merged
	*s = r
	return dup
}

// release records a release reply; every ID the clients release is live,
// so the reply must count all of them.
func (l *ledger) release(sent, released int) error {
	l.mu.Lock()
	l.released += int64(released)
	l.mu.Unlock()
	if sent != released {
		return fmt.Errorf("released %d of %d live IDs", released, sent)
	}
	return nil
}
