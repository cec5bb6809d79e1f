package serve

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// The frame stream is the cluster data plane's transport. A router's
// group-commit writer opens one connection per replica and upgrades it
// on /allocate with an HTTP/1.1 handshake:
//
//	GET /allocate HTTP/1.1           HTTP/1.1 101 Switching Protocols
//	Connection: Upgrade       ->     Connection: Upgrade
//	Upgrade: pba-wire                Upgrade: pba-wire
//
// After the 101 both sides write bare wire frames: the router one
// KindBatchRequest frame per flush, the replica one KindBatchReply frame
// per request frame, in order, each in a single write. Batch frames are
// accepted nowhere else. A structurally bad frame — a length prefix over
// MaxBody, a stream that ends mid-frame, a kind other than
// KindBatchRequest, a malformed batch — closes the stream; there is no
// whole-frame error reply.
//
// Closing contract: the replica answers every frame it has read in full
// before its stream closes, and reads no further frame once the stream
// is closing. A stream that ends before any byte of a reply therefore
// never ran the frame, so the writer may resend it once on a fresh
// connection. Streams close when their server shuts down
// (http.Server.Shutdown) and, for NewHandler, when its Service closes.

// UpgradeToken is the Upgrade header value that turns an /allocate
// connection into a frame stream.
const UpgradeToken = "pba-wire"

// ErrFrameTooLarge rejects a stream frame whose length prefix declares
// more bytes than its reader accepts (MaxBody on the replica).
var ErrFrameTooLarge = errors.New("serve: stream frame exceeds the reader's limit")

// upgradeReply is the replica's half of the handshake.
var upgradeReply = []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + UpgradeToken + "\r\n\r\n")

// streamChunk is the first step of a frame body read. Each later step
// doubles what has arrived, so a reader's memory follows the bytes a
// peer actually sends, not the length its prefix declares.
const streamChunk = 64 << 10

// maxRetainedFrame: a frame buffer grown past this by one large frame is
// dropped before the next read rather than pinned for the stream's life.
const maxRetainedFrame = 1 << 20

// ReadStreamFrame reads one length-prefixed wire frame from r into dst's
// backing array and returns the whole frame, prefix included, ready for
// the wire parsers. A prefix declaring more than limit bytes fails with
// ErrFrameTooLarge before anything past it is read or allocated; below
// the limit the buffer grows only as body bytes arrive. A stream that
// ends before the first byte returns io.EOF; one that ends inside the
// frame returns io.ErrUnexpectedEOF.
func ReadStreamFrame(r io.Reader, dst []byte, limit int) ([]byte, error) {
	if cap(dst) < 4 || cap(dst) > maxRetainedFrame {
		dst = make([]byte, 4, 512)
	}
	dst = dst[:4]
	if _, err := io.ReadFull(r, dst); err != nil {
		return dst[:0], err
	}
	n := 4 + int(binary.LittleEndian.Uint32(dst))
	if n > limit {
		return dst[:0], ErrFrameTooLarge
	}
	for have := 4; have < n; have = len(dst) {
		next := n
		if n > cap(dst) {
			next = min(n, max(2*have, streamChunk))
			dst = slices.Grow(dst, next-have)
		}
		dst = dst[:next]
		if _, err := io.ReadFull(r, dst[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst[:0], err
		}
	}
	return dst, nil
}

// streamSet tracks one handler's open streams. http.Server does not
// track hijacked connections, so the set registers itself with every
// server that upgrades a connection through it and closes its streams
// when that server shuts down; NewHandler's set also closes with its
// Service (Service.Close), which covers http.Server.Close.
//
// Closing sets a read deadline in the past on every stream: it cuts a
// frame still being read (that frame never runs) and leaves a reply
// write alone, so a frame already executing is answered in full and its
// loop exits on the next read.
type streamSet struct {
	mu      sync.Mutex
	open    map[net.Conn]struct{}
	servers map[*http.Server]bool
	closed  bool
	wg      sync.WaitGroup // one per open stream
}

// add tracks nc; false means the set has closed and nc must not serve.
func (s *streamSet) add(nc net.Conn, srv *http.Server) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if srv != nil && !s.servers[srv] {
		if s.servers == nil {
			s.servers = make(map[*http.Server]bool)
		}
		s.servers[srv] = true
		srv.RegisterOnShutdown(s.close)
	}
	if s.open == nil {
		s.open = make(map[net.Conn]struct{})
	}
	s.open[nc] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *streamSet) remove(nc net.Conn) {
	s.mu.Lock()
	delete(s.open, nc)
	s.mu.Unlock()
	s.wg.Done()
}

// close refuses new streams, ends every open one (each after its frame
// in execution, if any) and waits until all their loops have returned.
func (s *streamSet) close() {
	s.mu.Lock()
	s.closed = true
	for nc := range s.open {
		_ = nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serveStream answers the upgrade handshake on a hijacked /allocate
// connection and serves batch frames on it until the peer closes, a
// frame is bad, or the set closes. It runs on the connection's own
// handler goroutine, which returns when the stream ends.
func serveStream(b Backend, m *handlerMetrics, hc HandlerConfig, set *streamSet, w http.ResponseWriter, r *http.Request) {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, "connection cannot be upgraded")
		return
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		return
	}
	defer nc.Close()
	// The server's header deadlines no longer apply; the stream idles
	// between frames for as long as its writer does. Cleared before the
	// set sees the stream, so this cannot undo a close.
	_ = nc.SetDeadline(time.Time{})
	if !set.add(nc, srv) {
		return
	}
	defer set.remove(nc)
	if _, err := nc.Write(upgradeReply); err != nil {
		return
	}
	sc := wirePool.Get().(*wireScratch)
	defer putWire(sc)
	var frame []byte
	for {
		if frame, err = ReadStreamFrame(brw.Reader, frame, MaxBody); err != nil {
			return
		}
		if kind, err := wire.Kind(frame); err != nil || kind != wire.KindBatchRequest {
			return
		}
		m.reqAllocate.Inc()
		if err := runBatch(b, m, hc, sc, frame); err != nil {
			return
		}
		if _, err := nc.Write(sc.out); err != nil {
			return
		}
	}
}
