package serve

import (
	"fmt"

	"repro/internal/online"
)

// Cell-level topology operations. A cell is self-contained — its seed,
// bin range, and global ID arithmetic derive from the (n, shards, seed)
// topology, not from where it runs — so moving one between replicas is
// snapshot, ship, restore, with fingerprint verification at both ends.
// The cluster tier moves cells with the two-phase protocol (migrate.go)
// and attaches fresh ones with AttachCell(g, nil); the whole-move seam
// below is the in-process form, which tests and benchmarks drive:
//
//	src: CellSnapshot(g)            capture the cell (fingerprint inside)
//	dst: AttachCell(g, snap)        restore; online.Restore verifies the
//	                                state against the stored fingerprint
//	src: DetachCell(g)              stop the cell; returns the final
//	                                fingerprint to compare against the
//	                                snapshot that was shipped
//
// All three take the topology write side, so they only proceed when the
// replica is quiescent for that cell (no in-flight epochs, empty queue).

// CellInfo is one hosted cell's line in the GET /cells document.
type CellInfo struct {
	Cell    int   `json:"cell"`
	Bins    int   `json:"bins"`
	BinBase int   `json:"bin_base"`
	Epochs  int   `json:"epochs"`
	Live    int64 `json:"live"`
	Pending int64 `json:"pending"`
	MaxLoad int64 `json:"max_load"`
	// Fingerprint is the cell's full-state fingerprint, filled only when
	// asked (O(live) hashing); the chain fingerprint in /stats covers the
	// cheap steady-state case.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Cells lists the hosted cells in global order. With fingerprints, each
// entry carries its full-state fingerprint — the inputs a router needs
// for ClusterFingerprint.
func (s *Service) Cells(fingerprints bool) []CellInfo {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make([]CellInfo, 0, len(s.cells))
	for _, c := range s.cells {
		cs := c.alloc.StatsLite()
		ci := CellInfo{
			Cell: c.index, Bins: c.n, BinBase: c.binBase, Epochs: cs.Epoch,
			Live: cs.Live, Pending: cs.Pending, MaxLoad: cs.MaxLoad,
		}
		if fingerprints {
			ci.Fingerprint = c.alloc.Fingerprint()
		}
		out = append(out, ci)
	}
	return out
}

// CellSnapshot captures one hosted cell's state as the same verified
// document the whole-service snapshot embeds per cell. Taken under the
// topology write lock, the cut is exact: every granted ball is inside.
func (s *Service) CellSnapshot(g int) (*online.Snapshot, error) {
	s.topo.Lock()
	defer s.topo.Unlock()
	c, err := s.hostedCell(g)
	if err != nil {
		return nil, err
	}
	return c.alloc.Snapshot(), nil
}

// AttachCell adds global cell g to this replica: restored from snap when
// non-nil (the migration path), fresh and empty otherwise (cluster
// bootstrap). The snapshot must be the cell it claims to be — bin count,
// algorithm, and seed are all re-derived from the topology and checked —
// and online restore verifies the state against the embedded
// fingerprint, so a corrupted or mis-addressed migration fails here
// rather than diverging later.
func (s *Service) AttachCell(g int, snap *online.Snapshot) error {
	s.topo.Lock()
	defer s.topo.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("serve: service closed")
	}
	if !s.clustered {
		return fmt.Errorf("serve: not a cluster replica; cells are fixed")
	}
	if g < 0 || g >= s.total {
		return fmt.Errorf("serve: cell %d out of range [0, %d)", g, s.total)
	}
	if s.byGlobal[g] != nil {
		return fmt.Errorf("serve: cell %d already hosted here", g)
	}
	binBase, cellN := cellBins(s.cfg.N, s.total, g)
	wantSeed := cellSeed(s.cfg.Seed, g, s.total)
	ins := s.metrics.cellInstrumentation(g)
	var alloc *online.Allocator
	var err error
	if snap == nil {
		alloc, err = online.New(online.Config{
			N: cellN, Alg: s.cfg.Alg, Seed: wantSeed, Workers: s.cfg.Workers, Ins: ins,
		})
	} else {
		if snap.N != cellN {
			return fmt.Errorf("serve: cell %d snapshot has %d bins, topology expects %d", g, snap.N, cellN)
		}
		if snap.Alg != s.cfg.Alg {
			return fmt.Errorf("serve: cell %d snapshot ran %s, service runs %s", g, snap.Alg, s.cfg.Alg)
		}
		if snap.Seed != wantSeed {
			return fmt.Errorf("serve: cell %d snapshot seed %d does not derive from service seed %d", g, snap.Seed, s.cfg.Seed)
		}
		alloc, err = snap.Restore(online.Config{Workers: s.cfg.Workers, Ins: ins})
	}
	if err != nil {
		return fmt.Errorf("serve: attaching cell %d: %w", g, err)
	}
	c := s.newCell(g, binBase, cellN, alloc)
	s.byGlobal[g] = c
	s.rebuildHosted()
	s.startCell(c)
	s.metrics.attaches.Inc()
	if snap != nil {
		s.metrics.migrations.Inc()
	}
	return nil
}

// DetachCell removes global cell g from this replica, stopping its
// batcher, and returns the cell's final state fingerprint so the caller
// can verify nothing changed since the snapshot it holds. The balls
// themselves are untouched — detaching only forgets the state here; the
// router must have restored the snapshot elsewhere first or those balls
// are gone.
func (s *Service) DetachCell(g int) (string, error) {
	s.topo.Lock()
	defer s.topo.Unlock()
	c, err := s.hostedCell(g)
	if err != nil {
		return "", err
	}
	close(c.queue)
	<-c.done
	fp := c.alloc.Fingerprint()
	s.byGlobal[g] = nil
	s.rebuildHosted()
	s.zeroCellGauges(g)
	s.metrics.detaches.Inc()
	s.metrics.migrations.Inc()
	return fp, nil
}

// hostedCell resolves a global index to the hosted cell. Callers hold
// either side of the topology lock.
func (s *Service) hostedCell(g int) (*cell, error) {
	if g < 0 || g >= s.total {
		return nil, fmt.Errorf("serve: cell %d out of range [0, %d)", g, s.total)
	}
	if s.byGlobal[g] == nil {
		return nil, fmt.Errorf("serve: cell %d not hosted here", g)
	}
	return s.byGlobal[g], nil
}

// SetEvacuation records the evacuation coordinates the router sends on
// cell attach (X-PBA-Router / X-PBA-Self): the router's base URL and this
// replica's upstream URL as the router addresses it. Empty strings are
// ignored, so a direct attach without headers never erases a previous
// router's coordinates.
func (s *Service) SetEvacuation(routerURL, selfURL string) {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	if routerURL != "" {
		s.routerURL = routerURL
	}
	if selfURL != "" {
		s.selfURL = selfURL
	}
}

// Evacuation returns the recorded router and self URLs (empty when no
// router has attached a cell with coordinates yet).
func (s *Service) Evacuation() (routerURL, selfURL string) {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	return s.routerURL, s.selfURL
}
