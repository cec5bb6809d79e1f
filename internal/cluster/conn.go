package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The router's data plane is one frame stream per upstream (see
// serve.UpgradeToken), owned by that upstream's group-commit writer
// (batch.go): the connection is upgraded once with an HTTP/1.1
// handshake on /allocate, then carries bare wire frames — one batch
// request per flush out, one batch reply back, read by its length prefix
// through a reusable bufio.Reader into a reusable buffer. A warm forward
// therefore adds zero allocations on top of what the replica's own
// stream loop does.

// dialTimeout bounds one upstream connection attempt, handshake
// included.
const dialTimeout = 5 * time.Second

// upstream is one replica as the router sees it: its address and its
// health word.
type upstream struct {
	base string // normalized base URL, e.g. http://127.0.0.1:9100
	host string // host:port for the Host header and dialing

	// healthy is flipped by the health loop (and by forward errors); the
	// data path keeps using an unhealthy upstream — its cells live nowhere
	// else — but /healthz surfaces the state and the rebalancer skips it
	// as a migration target.
	healthy atomic.Bool

	forwards *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

func newUpstream(raw string, met *metrics) (*upstream, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: upstream %q: %w", raw, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("cluster: upstream %q: upstream frame streams speak plain http only", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("cluster: upstream %q: missing host", raw)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	up := &upstream{
		base:     "http://" + u.Host,
		host:     host,
		forwards: met.reg.Counter("pba_router_forwards_total", "Data-plane requests forwarded, by upstream.", obs.L("upstream", u.Host)),
		errors:   met.reg.Counter("pba_router_forward_errors_total", "Forward failures (transport or HTTP), by upstream.", obs.L("upstream", u.Host)),
		latency:  met.reg.DurationHistogram("pba_router_upstream_seconds", "Upstream round-trip time: request write to reply decoded.", obs.L("upstream", u.Host)),
	}
	up.healthy.Store(true)
	return up, nil
}

// dial opens a fresh connection to the upstream and upgrades it to a
// frame stream.
func (u *upstream) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", u.host, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing %s: %w", u.base, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c := &conn{nc: nc, br: bufio.NewReaderSize(nc, 1<<16)}
	if err := c.upgrade(u.host); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("cluster: upgrading %s: %w", u.base, err)
	}
	return c, nil
}

// conn is one upstream frame stream plus its reusable reply buffer.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	reply []byte
}

// upgrade runs the stream handshake: GET /allocate with the Upgrade
// headers, answered by 101 and a header block the router skips.
func (c *conn) upgrade(host string) error {
	_ = c.nc.SetDeadline(time.Now().Add(dialTimeout))
	req := "GET /allocate HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + serve.UpgradeToken + "\r\n\r\n"
	if _, err := c.nc.Write([]byte(req)); err != nil {
		return err
	}
	status, err := c.readLine()
	if err != nil {
		return fmt.Errorf("reading status line: %w", err)
	}
	if !bytes.HasPrefix(status, []byte("HTTP/1.1 101 ")) {
		return fmt.Errorf("upgrade refused: %q", status)
	}
	for {
		line, err := c.readLine()
		if err != nil {
			return fmt.Errorf("reading header: %w", err)
		}
		if len(line) == 0 {
			return c.nc.SetDeadline(time.Time{})
		}
	}
}

// readLine returns the next CRLF-terminated line, sans terminator. The
// slice aliases the bufio buffer and is valid until the next read.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}

// receive reads the next reply frame into c.reply, refusing one whose
// prefix declares more than limit bytes. answered reports whether any
// byte of the reply arrived: a failure before the first byte means, by
// the stream's closing contract, that the replica never ran the frame.
func (c *conn) receive(limit int) (frame []byte, answered bool, err error) {
	if _, err := c.br.Peek(1); err != nil {
		return nil, false, err
	}
	c.reply, err = serve.ReadStreamFrame(c.br, c.reply, limit)
	return c.reply, true, err
}

// httpError is an upstream failure in the serve protocol's JSON error
// shape — an HTTP status plus message — as a batch sub-reply carries it.
// Spans carries the partially-granted IDs of a partial allocate failure
// so the router can propagate the replica's partial-failure contract
// cluster-wide.
type httpError struct {
	Status int
	Msg    string
	Spans  []serve.Span
}

func (e *httpError) Error() string {
	return fmt.Sprintf("upstream HTTP %d: %s", e.Status, e.Msg)
}
