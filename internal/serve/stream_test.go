package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// startStreamServer serves h on a loopback listener; the returned server
// is closed via t.Cleanup.
func startStreamServer(t *testing.T, h http.Handler) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

// dialStream opens a connection to addr and upgrades it to the frame
// stream; the connection is closed via t.Cleanup.
func dialStream(t *testing.T, addr string) (*net.TCPConn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(nc, "GET /allocate HTTP/1.1\r\nHost: replica\r\nConnection: Upgrade\r\nUpgrade: "+UpgradeToken+"\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	res, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusSwitchingProtocols || res.Header.Get("Upgrade") != UpgradeToken {
		t.Fatalf("upgrade answered %s (Upgrade: %q)", res.Status, res.Header.Get("Upgrade"))
	}
	return nc.(*net.TCPConn), br
}

// batchOf frames complete request frames as one batch, tagged 0, 1, ...
func batchOf(subs ...[]byte) []byte {
	f := wire.BeginBatchRequest(nil)
	for i, s := range subs {
		f = wire.AppendBatchTag(f, uint32(i))
		f = append(f, s...)
	}
	return wire.FinishBatch(f, 0, len(subs))
}

// exchangeFrame writes frame and returns the parsed sub-replies of the
// one reply frame, failing the test on any error.
func exchangeFrame(t *testing.T, nc net.Conn, br *bufio.Reader, frame []byte) []wire.BatchSubReply {
	t.Helper()
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadStreamFrame(br, nil, MaxBody)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	subs, err := wire.ParseBatchReply(reply, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if s.Status != 0 {
			t.Fatalf("sub %d failed: %d %s", s.Tag, s.Status, s.Frame)
		}
	}
	return subs
}

// expectClosed fails unless the replica closes the stream without
// sending a byte, within the connection's deadline.
func expectClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if b, err := br.ReadByte(); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("stream read returned byte %#x, err %v; want the replica to close it", b, err)
	}
}

// TestStreamCountsEveryFrame: each frame on a stream is one /allocate
// request in pba_http_requests_total and one observation in each of the
// decode and encode stage histograms, exactly as a POST is, while the
// upgrade handshake itself counts nothing.
func TestStreamCountsEveryFrame(t *testing.T) {
	s, err := New(Config{N: 16, Shards: 2, Alg: "aheavy", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, addr := startStreamServer(t, NewHandler(s, HandlerConfig{}))
	m := s.metrics
	req0, dec0, enc0 := m.httpAllocate.Load(), m.stageDecode.Count(), m.stageEncode.Count()
	nc, br := dialStream(t, addr)
	pairs := []wire.CellCount{{Cell: 0, Count: 3}, {Cell: 1, Count: 2}}
	var ids []int64
	for i := 0; i < 2; i++ {
		sub := exchangeFrame(t, nc, br, batchOf(wire.AppendCellAllocateRequest(nil, pairs, true)))
		var rep Report
		if err := wire.ParseReport(sub[0].Frame, &rep); err != nil {
			t.Fatal(err)
		}
		ids = rep.AppendIDs(ids)
	}
	sub := exchangeFrame(t, nc, br, batchOf(wire.AppendReleaseRequest(nil, ids)))
	if got, err := wire.ParseReleaseReply(sub[0].Frame); err != nil || got != 10 {
		t.Fatalf("released %d of 10 (%v)", got, err)
	}
	if got := m.httpAllocate.Load() - req0; got != 3 {
		t.Errorf("pba_http_requests_total{path=\"/allocate\"} advanced %d over 3 frames", got)
	}
	if dec, enc := m.stageDecode.Count()-dec0, m.stageEncode.Count()-enc0; dec != 3 || enc != 3 {
		t.Errorf("decode/encode stages observed %d/%d times over 3 frames", dec, enc)
	}
}

// TestBatchFrameRefusedOverPOST: batch frames are accepted only on the
// stream; POSTed to /allocate they are a bad frame, Upgrade headers or
// not (only a GET upgrades).
func TestBatchFrameRefusedOverPOST(t *testing.T) {
	s, err := New(Config{N: 16, Shards: 2, Alg: "aheavy", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frame := batchOf(wire.AppendCellAllocateRequest(nil, []wire.CellCount{{Cell: 0, Count: 1}}, true))
	req := httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", UpgradeToken)
	rec := httptest.NewRecorder()
	NewHandler(s, HandlerConfig{}).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POSTed batch frame: status %d, want 400", rec.Code)
	}
	if live := s.StatsLite().Live; live != 0 {
		t.Fatalf("refused frame admitted %d balls", live)
	}
}

// TestStreamRejectsBadFrames: the replica closes a stream, answering
// nothing, on a length prefix over MaxBody (without waiting for the body
// it declares), on a frame the peer never finishes, and on a frame of
// any kind but KindBatchRequest.
func TestStreamRejectsBadFrames(t *testing.T) {
	s, err := New(Config{N: 16, Shards: 2, Alg: "aheavy", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, addr := startStreamServer(t, NewHandler(s, HandlerConfig{}))
	cases := []struct {
		name  string
		bytes []byte
		done  bool // half-close after writing: the peer is finished
	}{
		{"oversized prefix", binary.LittleEndian.AppendUint32(nil, MaxBody), false},
		{"truncated frame", append(binary.LittleEndian.AppendUint32(nil, 64), make([]byte, 10)...), true},
		{"wrong kind", wire.AppendCellAllocateRequest(nil, []wire.CellCount{{Cell: 0, Count: 1}}, true), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, br := dialStream(t, addr)
			if _, err := nc.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			if tc.done {
				_ = nc.CloseWrite()
			}
			expectClosed(t, br)
		})
	}
	if live := s.StatsLite().Live; live != 0 {
		t.Fatalf("rejected frames admitted %d balls", live)
	}
}

// TestReadStreamFrameCap: an oversized length prefix is refused before
// anything is allocated or read past it.
func TestReadStreamFrameCap(t *testing.T) {
	in := binary.LittleEndian.AppendUint32(nil, MaxBody-3)
	in = append(in, 0xAA)
	dst := make([]byte, 0, 16)
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(in)
		if _, err := ReadStreamFrame(r, dst, MaxBody); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rejecting an oversized prefix allocated %.1f times", allocs)
	}
	if r.Len() != 1 {
		t.Fatalf("read %d bytes past the prefix", 1-r.Len())
	}
	// A frame of exactly MaxBody bytes is within the cap.
	in = binary.LittleEndian.AppendUint32(nil, MaxBody-4)
	in = append(in, make([]byte, MaxBody-4)...)
	if f, err := ReadStreamFrame(bytes.NewReader(in), nil, MaxBody); err != nil || len(f) != MaxBody {
		t.Fatalf("MaxBody-byte frame: %d bytes, %v", len(f), err)
	}
}

// TestReadStreamFrameGrowsWithBytes: below the cap, the frame buffer
// grows as body bytes arrive, so a peer that declares a MaxBody frame
// and then stalls pins a small buffer, not the declared size; and a
// buffer grown past the retention bound by one large frame is not kept
// for the next.
func TestReadStreamFrameGrowsWithBytes(t *testing.T) {
	in := binary.LittleEndian.AppendUint32(nil, MaxBody-4)
	in = append(in, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadStreamFrame(bytes.NewReader(in), nil, MaxBody)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("stalled frame returned %v, want io.ErrUnexpectedEOF", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4*streamChunk {
		t.Fatalf("a 104-byte prefix of a %d-byte frame allocated %d bytes", MaxBody, grown)
	}

	frame := wire.AppendReleaseRequest(nil, []int64{1, 2, 3})
	f, err := ReadStreamFrame(bytes.NewReader(frame), make([]byte, 0, 2*maxRetainedFrame), MaxBody)
	if err != nil || !bytes.Equal(f, frame) {
		t.Fatalf("read %x, %v; want %x", f, err, frame)
	}
	if cap(f) > maxRetainedFrame {
		t.Fatalf("kept a %d-byte buffer past the %d-byte retention bound", cap(f), maxRetainedFrame)
	}
}

// gatedBackend, once armed, holds the next batch it runs until release
// closes, signalling entered when it starts holding.
type gatedBackend struct {
	*Service
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedBackend) AllocateCellsBatch(items []CellBatchItem) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	g.Service.AllocateCellsBatch(items)
}

// TestStreamClosesOnShutdown: http.Server does not track hijacked
// connections, so its Shutdown must still reach the streams, and after
// its Close (which runs no shutdown hook) the Service's Close must. An
// idle stream closes at once; a stream with a frame in execution answers
// that frame in full and then closes; afterwards no stream goroutine is
// left.
func TestStreamClosesOnShutdown(t *testing.T) {
	for _, via := range []string{"Shutdown", "Close"} {
		t.Run(via, func(t *testing.T) {
			s, err := New(Config{N: 16, Shards: 2, Alg: "aheavy", Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			gb := &gatedBackend{Service: s, entered: make(chan struct{}), release: make(chan struct{})}
			release := sync.OnceFunc(func() { close(gb.release) })
			defer release() // before s.Close, which waits for the held batch
			reg := obs.NewRegistry()
			srv, addr := startStreamServer(t, backendMux(gb, newHandlerMetrics(reg), reg, HandlerConfig{}, &s.streams))
			idle, idleBR := dialStream(t, addr)
			busy, busyBR := dialStream(t, addr)
			frame := batchOf(wire.AppendCellAllocateRequest(nil, []wire.CellCount{{Cell: 0, Count: 2}}, true))
			exchangeFrame(t, idle, idleBR, frame)
			gb.armed.Store(true)
			if _, err := busy.Write(frame); err != nil {
				t.Fatal(err)
			}
			<-gb.entered

			closed := make(chan struct{})
			if via == "Shutdown" {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
				close(closed)
			} else {
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				go func() { s.Close(); close(closed) }()
			}
			expectClosed(t, idleBR)
			release()
			reply, err := ReadStreamFrame(busyBR, nil, MaxBody)
			if err != nil {
				t.Fatalf("frame in execution at %s went unanswered: %v", via, err)
			}
			subs, err := wire.ParseBatchReply(reply, nil)
			if err != nil || len(subs) != 1 || subs[0].Status != 0 {
				t.Fatalf("frame in execution at %s: reply %+v, %v", via, subs, err)
			}
			var rep Report
			if err := wire.ParseReport(subs[0].Frame, &rep); err != nil || rep.Admitted != 2 {
				t.Fatalf("frame in execution at %s admitted %d of 2 (%v)", via, rep.Admitted, err)
			}
			expectClosed(t, busyBR)
			<-closed
			if live := s.StatsLite().Live; live != 4 {
				t.Fatalf("%d live balls, want the 4 both frames admitted", live)
			}

			deadline := time.Now().Add(5 * time.Second)
			for {
				buf := make([]byte, 1<<20)
				stacks := string(buf[:runtime.Stack(buf, true)])
				if !strings.Contains(stacks, "serve.serveStream") {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("stream goroutine left after %s:\n%s", via, stacks)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
