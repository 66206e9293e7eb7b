package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// wireBytes counts every byte read from or written to a connection the
// harness dialled: the HTTP traffic measured on the transport, headers
// and framing included.
var wireBytes atomic.Int64

type countingConn struct{ net.Conn }

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	wireBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	wireBytes.Add(int64(n))
	return n, err
}

// newTransport is a keep-alive transport whose connections are counted.
func newTransport(maxConns int) *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c}, nil
		},
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		IdleConnTimeout:     90 * time.Second,
	}
}

// countDefaultTransport makes the process-wide default transport a
// counting one. client.NewShardWorker builds its HTTP client on the
// default transport and offers no way to pass another, so this is where
// the harness can see the coordinator's bytes from outside.
func countDefaultTransport() { http.DefaultTransport = newTransport(8) }

// thinClient is the timed client of the serve workloads: one keep-alive
// connection, whole-body reads, no decoding. Decoding with internal/client
// costs more client CPU than the server spends answering and would hide
// the server, so it stays off the timed path.
type thinClient struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // reused body buffer; a reply's body aliases it until the next call
}

func newThinClient(base string) *thinClient {
	return &thinClient{base: base, hc: &http.Client{Transport: newTransport(1), Timeout: 30 * time.Second}}
}

// reply is one finished HTTP exchange.
type reply struct {
	status int
	body   []byte
	total  time.Duration // request written → body fully read
	ttfb   time.Duration // → first response byte (traced exchanges only)
	read   time.Duration // headers returned → body fully read
}

// digest identifies a body: CRC-32C and length. It guards against a
// changed response, not an adversary.
func digest(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(uint32(len(b)))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// do performs one exchange. With traced set, the transport reports the
// first response byte through httptrace.
func (c *thinClient) do(method, path string, body []byte, traced bool) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := &reply{}
	start := time.Now()
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { r.ttfb = time.Since(start) },
		}))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	headers := time.Now()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	r.status, r.body = resp.StatusCode, c.buf.Bytes()
	r.total, r.read = end.Sub(start), end.Sub(headers)
	return r, nil
}

// expect is do plus the status check every operation needs.
func (c *thinClient) expect(status int, method, path string, body []byte, traced bool) (*reply, error) {
	r, err := c.do(method, path, body, traced)
	if err != nil {
		return nil, err
	}
	if r.status != status {
		b := r.body
		if len(b) > 200 {
			b = b[:200]
		}
		return r, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, r.status, status, b)
	}
	return r, nil
}

// scrape reads GET /metrics into name → value, for the unlabelled series
// (counters, gauges, and each histogram's _sum and _count).
func scrape(base string) (map[string]float64, error) {
	c := newThinClient(base)
	defer c.hc.CloseIdleConnections()
	r, err := c.expect(http.StatusOK, "GET", "/metrics", nil, false)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
