package cluster

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Upstream group commit, the router's data plane: each upstream's
// connection is owned by a single writer goroutine. Forwards submit
// their share of a round to the writer's queue and wait; the writer
// drains whatever has queued up, holds an adaptive window open when
// sustained concurrency makes coalescing pay, and flushes the whole
// group as one KindBatchRequest frame — many concurrent client requests
// become one upstream round trip, so upstream frames/s grows with
// replicas/window instead of client concurrency. Replies demux back to
// the waiting callers by sequence tag.
//
// The flush policy mirrors the replica's cell batcher (serve.cellLoop):
// an EWMA of the submission gap and of subs-per-flush decides whether a
// window engages at all, so a sequential caller — one request in flight
// at a time — always sees an immediate single-sub flush and pays zero
// added latency. A sequential replay therefore produces one-sub batch
// frames, one per involved upstream per request.
//
// Gate interaction: callers hold their cells' read-gates across
// submit-and-wait, and the writer never takes gates, so a migration's
// write-lock still means "no forward touching this cell is anywhere in
// flight — queued, framed, or awaiting its reply". The writer always
// drains its queue, so a gated submitter can never deadlock against it.

const (
	// maxUpBatch caps subs per flush; upQueueDepth bounds the submission
	// queue (backpressure, not loss — the writer always drains).
	maxUpBatch   = 128
	upQueueDepth = 256

	// upCoalesceOn engages the window once the EWMA of subs-per-flush
	// (×256 fixed point) exceeds ~1.25 — i.e. only under concurrency.
	upCoalesceOn = 320

	// upMaxGapNs: a submission gap above this means idle; the EWMA state
	// resets so a burst after a lull starts windowless.
	upMaxGapNs = int64(10 * time.Millisecond)

	// maxBatchBytes caps one flush's frame size (the replica caps frames
	// at serve.MaxBody); maxReplyBytes caps the reply bytes a flush may
	// ask for (see replyBytes). A sub that would push either past its cap
	// carries to the next flush, so only a lone sub exceeds maxReplyBytes.
	maxBatchBytes = 4 << 20
	maxReplyBytes = serve.MaxBody

	// spanReplyBytes bounds one granted span in a sub-reply: 20 bytes
	// framed, under 96 as JSON in a partial failure's error document.
	spanReplyBytes = 96

	// minWindowNs and maxWindowNs clamp the adaptive coalescing window.
	minWindowNs = int64(2 * time.Microsecond)
	maxWindowNs = int64(100 * time.Microsecond)
)

// errSubMissing marks a sub the reply frame failed to answer; it only
// escapes when a replica violates the one-reply-per-tag contract.
var errSubMissing = fmt.Errorf("cluster: batch reply missing this sub-request")

// errRouterClosed fails submissions that race a Close.
var errRouterClosed = fmt.Errorf("cluster: router closed")

// batchSub is one forward's share of a group-committed upstream round:
// the payload (allocate pairs or release IDs), the reply target, and a
// one-slot done channel the writer signals after demux. Subs are pooled
// inside fwdScratch, one per upstream, so the steady-state submit path
// allocates nothing.
type batchSub struct {
	alloc    bool
	terse    bool
	pairs    []wire.CellCount
	ids      []int64
	rep      *serve.Report
	released int
	err      error
	done     chan struct{}
}

// subBytes estimates a sub's frame contribution for the byte cap.
func subBytes(s *batchSub) int {
	if s.alloc {
		return 32 + len(s.pairs)*8
	}
	return 32 + len(s.ids)*8
}

// replyBytes bounds the variable part of a sub's reply: a span per cell
// and, unless terse, 12 bytes of placement per ball — up to
// serve.MaxBatch×12 for one legal allocate, far past serve.MaxBody. The
// fixed parts (headers, counters, an error message) of a whole flush's
// reply fit in serve.MaxBody, so a reply frame over that plus the sum of
// its subs' replyBytes is not one the replica can legitimately send.
func replyBytes(s *batchSub) int {
	if !s.alloc {
		return 0
	}
	n := len(s.pairs) * spanReplyBytes
	if !s.terse {
		for _, p := range s.pairs {
			n += 12 * p.Count
		}
	}
	return n
}

// upBatcher is one upstream's group-commit writer. All mutable state
// past the queue is writer-goroutine-local — the EWMA needs no atomics.
type upBatcher struct {
	up   *upstream
	q    chan *batchSub
	stop chan struct{}
	done chan struct{}

	// Flush-policy EWMA state (writer-local): gap between round starts
	// and subs per flush, ×256 fixed point.
	lastStart int64
	ewmaGapNs int64
	ewmaSubs  int64

	// The outgoing frame and the reply demux scratch, reused across
	// flushes.
	frame []byte
	reps  []wire.BatchSubReply

	frames     *obs.Counter
	batchSize  *obs.Histogram
	flushFull  *obs.Counter
	flushWin   *obs.Counter
	flushDrain *obs.Counter
}

func newUpBatcher(up *upstream, met *metrics) *upBatcher {
	host := obs.L("upstream", up.host)
	flush := func(reason string) *obs.Counter {
		return met.reg.Counter("pba_upstream_flush_total",
			"Group-commit flushes by reason: full (sub or byte cap), window (adaptive window expired), drain (queue empty, no window engaged).",
			host, obs.L("reason", reason))
	}
	return &upBatcher{
		up:   up,
		q:    make(chan *batchSub, upQueueDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		frames: met.reg.Counter("pba_upstream_frames_total",
			"Batch frames flushed to the upstream (one round trip each).", host),
		batchSize: met.reg.ValueHistogram("pba_upstream_batch_size",
			"Sub-requests per flushed batch frame (small values land in the first bucket; read mean and max).", host),
		flushFull:  flush("full"),
		flushWin:   flush("window"),
		flushDrain: flush("drain"),
	}
}

// window returns the coalescing window in nanoseconds — zero unless the
// recent past shows sustained concurrency, then a clamp of 4× the EWMA
// submission gap (same shape as the replica cell batcher's policy).
func (bt *upBatcher) window() int64 {
	if bt.ewmaSubs < upCoalesceOn || bt.ewmaGapNs == 0 {
		return 0
	}
	return min(max(4*bt.ewmaGapNs, minWindowNs), maxWindowNs)
}

// run is the writer loop: block for the first sub, drain the queue,
// optionally hold the adaptive window open, flush, repeat.
func (bt *upBatcher) run() {
	defer close(bt.done)
	pending := make([]*batchSub, 0, maxUpBatch)
	var carry *batchSub
	var c *conn
	defer func() {
		if c != nil {
			_ = c.nc.Close()
		}
	}()
	for {
		pending = pending[:0]
		var first *batchSub
		if carry != nil {
			first, carry = carry, nil
		} else {
			select {
			case first = <-bt.q:
			case <-bt.stop:
				return
			}
		}
		now := time.Now().UnixNano()
		if bt.lastStart != 0 {
			if gap := now - bt.lastStart; gap > upMaxGapNs {
				bt.ewmaGapNs, bt.ewmaSubs = 0, 0
			} else {
				bt.ewmaGapNs = (3*bt.ewmaGapNs + gap) / 4
			}
		}
		bt.lastStart = now
		pending = append(pending, first)
		size, reply := subBytes(first), replyBytes(first)
		reason := bt.flushDrain
		window := bt.window()
		deadline := now + window
	collect:
		for len(pending) < maxUpBatch && carry == nil {
			select {
			case s := <-bt.q:
				if size+subBytes(s) > maxBatchBytes || reply+replyBytes(s) > maxReplyBytes {
					carry = s
					reason = bt.flushFull
				} else {
					pending = append(pending, s)
					size += subBytes(s)
					reply += replyBytes(s)
				}
			default:
				if window == 0 {
					break collect
				}
				if time.Now().UnixNano() >= deadline {
					reason = bt.flushWin
					break collect
				}
				// Spin-yield rather than sleep: the window is microseconds and
				// a timer wait would overshoot it by more than its length.
				runtime.Gosched()
			}
		}
		if len(pending) >= maxUpBatch {
			reason = bt.flushFull
		}
		bt.ewmaSubs = (3*bt.ewmaSubs + int64(len(pending))<<8) / 4
		reason.Inc()
		c = bt.flush(c, pending, serve.MaxBody+reply)
	}
}

// flush frames pending as one batch request (tag = index), sends it
// down the upstream's stream, reads the one reply (refused if its prefix
// declares more than replyLimit bytes), and demuxes
// sub-replies back to their waiting callers. Transport failures and
// unparseable replies fail every sub and retire the connection; per-sub
// errors decode to *httpError so the merge path folds a partial
// failure's spans. Returns the connection to own next round.
func (bt *upBatcher) flush(c *conn, pending []*batchSub, replyLimit int) *conn {
	bt.frames.Inc()
	bt.batchSize.Observe(int64(len(pending)))
	f := wire.BeginBatchRequest(bt.frame[:0])
	for i, s := range pending {
		f = wire.AppendBatchTag(f, uint32(i))
		if s.alloc {
			f = wire.AppendCellAllocateRequest(f, s.pairs, s.terse)
		} else {
			f = wire.AppendReleaseRequest(f, s.ids)
		}
	}
	bt.frame = wire.FinishBatch(f, 0, len(pending))
	bt.up.forwards.Add(uint64(len(pending)))
	start := time.Now()
	c, reply, err := bt.exchange(c, replyLimit)
	bt.up.latency.ObserveDuration(time.Since(start))
	if err != nil {
		return bt.broken(c, pending, err)
	}
	bt.reps, err = wire.ParseBatchReply(reply, bt.reps[:0])
	if err != nil {
		// An unparseable reply means the stream can no longer be
		// trusted; retire the connection like a transport failure.
		return bt.broken(c, pending, fmt.Errorf("bad batch reply: %w", err))
	}
	for _, s := range pending {
		s.err = errSubMissing
	}
	for i := range bt.reps {
		sr := &bt.reps[i]
		if int(sr.Tag) >= len(pending) {
			continue
		}
		s := pending[sr.Tag]
		if s.err != errSubMissing { //nolint:errorlint // sentinel identity, not wrapping
			continue // duplicate tag: first reply wins
		}
		if sr.Status == 0 {
			if s.alloc {
				s.err = wire.ParseReport(sr.Frame, s.rep)
			} else {
				s.released, s.err = wire.ParseReleaseReply(sr.Frame)
			}
		} else {
			s.err = decodeSubError(sr.Status, sr.Frame)
		}
	}
	for _, s := range pending {
		if s.err != nil {
			bt.up.errors.Inc()
		}
		s.done <- struct{}{}
	}
	return c
}

// exchange sends bt.frame over c, dialing when c is nil, and returns the
// connection with the reply frame. A connection kept from an earlier
// flush that fails before any byte of the reply — the replica closed it
// between frames, say on shutdown — is closed and the frame resent once
// on a fresh one: by the stream's closing contract the replica never ran
// it. On failure the returned connection is the one to retire.
func (bt *upBatcher) exchange(c *conn, replyLimit int) (*conn, []byte, error) {
	for retry := c != nil; ; retry = false {
		if c == nil {
			var err error
			if c, err = bt.up.dial(); err != nil {
				return nil, nil, err
			}
		}
		_, err := c.nc.Write(bt.frame)
		answered := false
		var reply []byte
		if err == nil {
			reply, answered, err = c.receive(replyLimit)
		}
		if err == nil || answered || !retry {
			return c, reply, err
		}
		_ = c.nc.Close()
		c = nil
	}
}

// broken handles a transport failure: it closes c (if any), marks the
// upstream unhealthy, and fails every pending sub with err. It returns
// nil, the connection the writer owns next round.
func (bt *upBatcher) broken(c *conn, pending []*batchSub, err error) *conn {
	if c != nil {
		_ = c.nc.Close()
	}
	bt.up.errors.Inc()
	bt.up.healthy.Store(false)
	bt.fail(pending, err)
	return nil
}

// fail completes every pending sub with err.
func (bt *upBatcher) fail(pending []*batchSub, err error) {
	for _, s := range pending {
		s.err = err
		s.done <- struct{}{}
	}
}

// decodeSubError turns a framed sub-error (HTTP status + JSON document)
// into an *httpError, spans and all, for the caller's partial-failure
// folding. Error paths may allocate.
func decodeSubError(status int, doc []byte) error {
	he := &httpError{Status: status}
	var d struct {
		Error string       `json:"error"`
		Spans []serve.Span `json:"spans"`
	}
	if json.Unmarshal(doc, &d) == nil && d.Error != "" {
		he.Msg, he.Spans = d.Error, d.Spans
	} else {
		he.Msg = string(doc)
	}
	return he
}

// forward submits each involved upstream's share of a request to its
// writer — the allocate pairs in sc.perUp when alloc, else the release
// IDs in sc.relIDs — before waiting on any, then collects the replies in
// upstream order. Failures land in sc.failed per upstream; the other
// upstreams' replies stay valid (the partial-failure contract). It
// returns the number of IDs the replicas released (0 for an allocate).
func (r *Router) forward(sc *fwdScratch, alloc bool) int {
	closed := r.closed.Load()
	for u, s := range sc.bsubs {
		s.alloc, s.terse, s.pairs, s.ids = alloc, r.cfg.Terse, nil, nil
		if alloc {
			s.pairs = sc.perUp[u]
		} else {
			s.ids = sc.relIDs[u]
		}
		s.rep, s.released, s.err = &sc.reps[u], 0, nil
		if len(s.pairs)+len(s.ids) == 0 {
			continue
		}
		if closed {
			s.err = errRouterClosed
			s.done <- struct{}{}
			continue
		}
		r.batchers[u].q <- s
	}
	total := 0
	for u, s := range sc.bsubs {
		if len(s.pairs)+len(s.ids) == 0 {
			continue
		}
		<-s.done
		if sc.failed[u] = s.err; s.err == nil {
			total += s.released
		}
	}
	return total
}
