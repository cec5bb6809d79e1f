package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// TestBatchedMatchesSingleProcess: group commit carries the
// determinism trace of playMatchedTrace — frames flushed on every
// upstream that saw traffic — and the sequential caller never rides a
// multi-sub frame, so a lone caller never waits out a coalescing window
// and the plane stays bit-compatible with one single-process service.
func TestBatchedMatchesSingleProcess(t *testing.T) {
	r, _ := playMatchedTrace(t)
	frames := uint64(0)
	for _, bt := range r.batchers {
		frames += bt.frames.Load()
		if max := bt.batchSize.Max(); max > 1 {
			t.Fatalf("sequential trace flushed a %d-sub frame; want single-sub flushes only", max)
		}
	}
	if frames == 0 {
		t.Fatal("no batch frames flushed; the group-commit plane did not engage")
	}
}

// TestBatchedConcurrentConservation hammers the router from 8
// concurrent clients while cells migrate between replicas mid-flight:
// multi-sub frames, migration gate interleaving, and demux all under
// load (and under -race in the race CI job). Afterwards every granted ID
// must be unique, the clients' live holdings must equal the cluster's
// live census exactly — no ball lost or duplicated — and a full drain
// must return the cluster to zero.
func TestBatchedConcurrentConservation(t *testing.T) {
	const n, cells, seed = 240, 6, 11
	const clients = 8
	ups := make([]string, 3)
	for i := range ups {
		_, ups[i] = emptyReplica(t, n, cells, seed)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: ups, Terse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	liveSets := make([][]int64, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rep := new(serve.Report)
			var live []int64
			for {
				select {
				case <-stop:
					liveSets[c] = live
					return
				default:
				}
				if err := r.AllocateInto(8+c, rep); err != nil {
					errs[c] = err
					liveSets[c] = live
					return
				}
				live = rep.AppendIDs(live)
				if len(live) > 40 {
					k := len(live) / 2
					if got := r.Release(live[:k]); got != k {
						errs[c] = fmt.Errorf("released %d of %d", got, k)
						liveSets[c] = live[k:]
						return
					}
					live = append(live[:0], live[k:]...)
				}
			}
		}(c)
	}

	// Migrations while batches are in flight: every cell moves at least
	// once, cycling over all three replicas.
	for i := 0; i < 2*cells; i++ {
		if err := r.Migrate(i%cells, i%len(ups)); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	seen := make(map[int64]bool)
	total := 0
	for _, live := range liveSets {
		for _, id := range live {
			if seen[id] {
				t.Fatalf("duplicate live id %d", id)
			}
			seen[id] = true
		}
		total += len(live)
	}
	st, ok := r.StatsDoc(false).(Stats)
	if !ok {
		t.Fatal("StatsDoc type")
	}
	if st.Live != int64(total) {
		t.Fatalf("cluster live %d, clients hold %d", st.Live, total)
	}
	for _, live := range liveSets {
		if len(live) == 0 {
			continue
		}
		if got := r.Release(live); got != len(live) {
			t.Fatalf("drain released %d of %d", got, len(live))
		}
	}
	if st, _ = r.StatsDoc(false).(Stats); st.Live != 0 {
		t.Fatalf("%d balls live after full drain", st.Live)
	}
}

// hijackRecorder records the connections a replica's handler hijacks
// for the frame stream, so a test can close the replica's end.
type hijackRecorder struct {
	http.ResponseWriter
	conns chan<- net.Conn
}

func (h hijackRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	nc, brw, err := h.ResponseWriter.(http.Hijacker).Hijack()
	if err == nil {
		h.conns <- nc
	}
	return nc, brw, err
}

// TestWriterRedialsAfterConnectionClose: a replica that closes its end
// of the frame stream between frames — as it does on shutdown — must
// cost no forward. The writer's next flush finds the stream gone before
// any reply byte, which by the closing contract means the frame never
// ran, and resends it once on a redialled stream: every forward
// succeeds, no sub fails, the upstream stays healthy, and every granted
// ball is released.
func TestWriterRedialsAfterConnectionClose(t *testing.T) {
	const n, cells, seed = 16, 2, 4
	conns := make(chan net.Conn, 8)
	svc, up := startWrappedReplica(t, serve.Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: []int{}},
		func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				h.ServeHTTP(hijackRecorder{w, conns}, req)
			})
		})
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: []string{up}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 1; i <= 3; i++ {
		rep, err := r.Allocate(10)
		if err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		if got := r.Release(rep.IDs()); got != 10 {
			t.Fatalf("forward %d: released %d of 10", i, got)
		}
		select {
		case nc := <-conns:
			_ = nc.Close() // the replica's end, between frames
		case <-time.After(5 * time.Second):
			t.Fatalf("forward %d rode no fresh stream", i)
		}
	}
	if errs := r.ups[0].errors.Load(); errs != 0 {
		t.Fatalf("%d forward errors; want none", errs)
	}
	if !r.ups[0].healthy.Load() {
		t.Fatal("upstream marked unhealthy after answered forwards")
	}
	if live := svc.StatsLite().Live; live != 0 {
		t.Fatalf("replica holds %d live balls after releasing every grant", live)
	}
}

// fakeBatchUpstream serves the GET /cells handshake for a one-replica
// topology hosting the given cells, and answers the frame-stream upgrade
// on /allocate: each batch frame gets the reply frame answer builds from
// its sub-requests.
func fakeBatchUpstream(t *testing.T, n, cells int, hosted []int, answer func(subs []wire.BatchSub) []byte) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/cells", func(w http.ResponseWriter, req *http.Request) {
		doc := make([]map[string]int, len(hosted))
		for i, g := range hosted {
			doc[i] = map[string]int{"cell": g}
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"n": n, "shards": cells, "alg": "aheavy", "seed": 1, "cells": doc,
		})
	})
	mux.HandleFunc("/allocate", func(w http.ResponseWriter, req *http.Request) {
		nc, brw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer nc.Close()
		if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+serve.UpgradeToken+"\r\n\r\n"); err != nil {
			return
		}
		var frame []byte
		for {
			if frame, err = serve.ReadStreamFrame(brw.Reader, frame, serve.MaxBody); err != nil {
				return
			}
			subs, err := wire.ParseBatchRequest(frame, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := nc.Write(answer(subs)); err != nil {
				return
			}
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + ln.Addr().String()
}

// allCells lists cells 0..cells-1.
func allCells(cells int) []int {
	out := make([]int, cells)
	for g := range out {
		out[g] = g
	}
	return out
}

// allocateWithin runs r.AllocateInto(k) and fails the test if it has not
// returned within a few seconds (a sub the writer never completes would
// hang its caller forever).
func allocateWithin(t *testing.T, r *Router, k int, rep *serve.Report) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.AllocateInto(k, rep) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("allocate did not return")
		return nil
	}
}

// TestBatchSubErrorPropagates: a sub-reply carrying the partial-failure
// shape (HTTP status 500 + granted spans) inside an otherwise healthy
// batch frame reaches the caller as an *httpError with that status, and
// the granted spans are folded into the reply.
func TestBatchSubErrorPropagates(t *testing.T) {
	const n, cells = 8, 2
	doc, err := json.Marshal(map[string]any{
		"error": "cell 1: allocator wedged",
		"spans": []serve.Span{{Start: 0, Stride: cells, Count: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	up := fakeBatchUpstream(t, n, cells, allCells(cells), func(subs []wire.BatchSub) []byte {
		f := wire.BeginBatchReply(nil)
		for _, s := range subs {
			f = wire.AppendBatchTag(f, s.Tag)
			f = wire.AppendBatchSubError(f, http.StatusInternalServerError, doc)
		}
		return wire.FinishBatch(f, 0, len(subs))
	})
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: []string{up}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var rep serve.Report
	err = allocateWithin(t, r, 10, &rep)
	var he *httpError
	if !errors.As(err, &he) || he.Status != http.StatusInternalServerError {
		t.Fatalf("sub error surfaced as %v, want the replica's HTTP 500", err)
	}
	if rep.Admitted != 3 || len(rep.Spans) != 1 || rep.Spans[0].Count != 3 {
		t.Fatalf("granted spans not folded into the reply: %+v", rep)
	}
}

// TestBatchMissingSubFails: a reply frame that answers a tag the
// request never sent, and not the one it did, fails the unanswered
// caller with errSubMissing instead of leaving it waiting.
func TestBatchMissingSubFails(t *testing.T) {
	const n, cells = 8, 2
	up := fakeBatchUpstream(t, n, cells, allCells(cells), func(subs []wire.BatchSub) []byte {
		f := wire.BeginBatchReply(nil)
		f = wire.AppendBatchTag(f, uint32(len(subs)+7))
		f = wire.AppendBatchSubError(f, http.StatusInternalServerError, []byte(`{"error":"stray"}`))
		return wire.FinishBatch(f, 0, 1)
	})
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: []string{up}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var rep serve.Report
	if err := allocateWithin(t, r, 10, &rep); !errors.Is(err, errSubMissing) {
		t.Fatalf("unanswered sub returned %v, want errSubMissing", err)
	}
	if rep.Admitted != 0 {
		t.Fatalf("unanswered sub admitted %d balls", rep.Admitted)
	}
}

// TestRouterCapsReplyFrame: a reply whose length prefix declares more
// than the flush can legitimately get back (serve.MaxBody plus its subs'
// replyBytes) fails the forward with serve.ErrFrameTooLarge at once —
// the router neither allocates the declared size nor waits for bytes
// that never come — and retires the stream.
func TestRouterCapsReplyFrame(t *testing.T) {
	const n, cells = 8, 2
	up := fakeBatchUpstream(t, n, cells, allCells(cells), func([]wire.BatchSub) []byte {
		return binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	})
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: []string{up}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rep serve.Report
	if err := allocateWithin(t, r, 10, &rep); !errors.Is(err, serve.ErrFrameTooLarge) {
		t.Fatalf("oversized reply returned %v, want serve.ErrFrameTooLarge", err)
	}
	if r.ups[0].healthy.Load() {
		t.Fatal("upstream still healthy after an oversized reply")
	}
}

// TestRouterForwardsReplyOverMaxBody: a legal non-terse allocate whose
// placements alone take more than serve.MaxBody (12 bytes a ball) comes
// back through the router whole. The replica grants the balls before it
// writes the reply, so refusing that reply would leave live balls no
// client holds the IDs of.
func TestRouterForwardsReplyOverMaxBody(t *testing.T) {
	const n, cells, seed = 16, 2, 6
	k := serve.MaxBody/12 + 1<<16
	// Several ~20 MB copies of the placements are live at once; collect
	// eagerly so the test's footprint stays near them.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	// oneshot is the cheapest inner algorithm; only the transport is
	// under test.
	svc, up := startReplica(t, serve.Config{N: n, Shards: cells, Alg: "oneshot", Seed: seed, Workers: 1, Host: []int{}})
	r, err := New(Config{N: n, Cells: cells, Alg: "oneshot", Seed: seed, Upstreams: []string{up}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rep serve.Report
	if err := r.AllocateInto(k, &rep); err != nil {
		t.Fatalf("allocating %d balls: %v", k, err)
	}
	if rep.Admitted != k || len(rep.Placements) != k {
		t.Fatalf("admitted %d with %d placements, want %d", rep.Admitted, len(rep.Placements), k)
	}
	if live := svc.StatsLite().Live; live != int64(k) {
		t.Fatalf("replica holds %d live balls, want %d", live, k)
	}
	if errs := r.ups[0].errors.Load(); errs != 0 || !r.ups[0].healthy.Load() {
		t.Fatalf("%d forward errors, healthy %v; want none, true", errs, r.ups[0].healthy.Load())
	}
	if got := r.Release(rep.IDs()); got != k {
		t.Fatalf("released %d of %d", got, k)
	}
	if live := svc.StatsLite().Live; live != 0 {
		t.Fatalf("replica holds %d live balls after releasing every grant", live)
	}
}
