package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wire"
)

// requestTimeout bounds every client request: a stuck request fails and
// counts in the error ratio instead of hanging the run.
const requestTimeout = 10 * time.Second

// client speaks the binary wire protocol over one keep-alive connection.
// It is not safe for concurrent use; each load-generating goroutine owns
// one.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	base  string
	out   []byte
	in    bytes.Buffer
	bytes int64 // request + reply body bytes

	// Traced runs: each request carries a fresh ID, and the call is
	// recorded as a client span under it.
	spans  *spanLog
	nextID uint64
	idBase uint64
}

func newClient(base string, spans *spanLog, index int) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{
		hc:     &http.Client{Transport: tr, Timeout: requestTimeout},
		tr:     tr,
		base:   base,
		spans:  spans,
		idBase: uint64(index+1) << 40,
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// allocate asks for k balls (terse: spans only, as pba-bench asks) and
// parses the reply into rep.
func (c *client) allocate(k int, rep *wire.Report) error {
	c.out = wire.AppendAllocateRequest(c.out[:0], k, true)
	body, err := c.post("/allocate", opAllocate)
	if err != nil {
		return err
	}
	if err := wire.ParseReport(body, rep); err != nil {
		return fmt.Errorf("allocate reply: %w", err)
	}
	return nil
}

// release departs ids and returns how many the stack released.
func (c *client) release(ids []int64) (int, error) {
	c.out = wire.AppendReleaseRequest(c.out[:0], ids)
	body, err := c.post("/release", opRelease)
	if err != nil {
		return 0, err
	}
	n, err := wire.ParseReleaseReply(body)
	if err != nil {
		return 0, fmt.Errorf("release reply: %w", err)
	}
	return n, nil
}

func (c *client) post(path string, op uint8) ([]byte, error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(c.out))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	var id uint64
	if c.spans != nil {
		c.nextID++
		id = c.idBase + c.nextID
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.in.Reset()
	_, err = c.in.ReadFrom(res.Body)
	_ = res.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: reading reply: %w", path, err)
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, res.Status, bytes.TrimSpace(c.in.Bytes()))
	}
	c.bytes += int64(len(c.out) + c.in.Len())
	if c.spans != nil {
		c.spans.add(id, layerClient, op, start, time.Now())
	}
	return c.in.Bytes(), nil
}
