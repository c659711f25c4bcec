package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is open-loop: request i of a rung is due at
// start + i/rate whatever happened to the requests before it, as when
// independent users arrive. It drives the server from at most two
// goroutines over two HTTP connections, and times each request from its
// due time, so a stall charges its wait to every request queued behind it.

// loadSenders is the number of sending goroutines, one connection each.
const loadSenders = 2

// lagBoundMs bounds the generator's own lag (send time minus due time, p99)
// against a no-op handler at the load rate — 5% of the latency limit,
// so a rung that misses the limit was missed by the server. Timer wake-ups
// alone cost about a millisecond here. TestGeneratorKeepsUp holds the
// generator to it.
const lagBoundMs = 5

// failedMs stands in for the latency of a failed request: a failure misses
// every latency limit.
const failedMs = 1e9

// sample is one request's timing relative to its due time.
type sample struct {
	latMs, lagMs float64 // due → completion, due → send
	ok           bool
}

// rungResult is the outcome of one offered rate.
type rungResult struct {
	rate       float64
	samples    []sample
	backlogMax int           // most requests due but not yet sent, at any send
	schedule   time.Duration // due time of the last request
	elapsed    time.Duration // until the last request completed
	cpu        time.Duration // CPU time of the process meanwhile
}

// latencies returns the per-request latencies in ms (failures at failedMs).
func (r *rungResult) latencies() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.latMs
	}
	return out
}

func (r *rungResult) lags() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.lagMs
	}
	return out
}

// failures counts failed requests.
func (r *rungResult) failures() int {
	n := 0
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// meetsSLO reports whether the rung's p99 met the limit without a growing
// backlog. A server that keeps up finishes the rung within one stall of its
// schedule; a backlog that grows stretches the rung in proportion to it.
func (r *rungResult) meetsSLO(limitMs float64) bool {
	keptUp := r.elapsed <= r.schedule+r.schedule/20+time.Duration(limitMs*float64(time.Millisecond))
	return quantile(r.latencies(), 0.99) <= limitMs && keptUp
}

// achievedRate is the rate of successful requests over the rung's length.
func (r *rungResult) achievedRate() float64 {
	return float64(len(r.samples)-r.failures()) / r.elapsed.Seconds()
}

// requestTimeout bounds one request, dial included.
const requestTimeout = 10 * time.Second

// loadConn is one keep-alive HTTP/1.1 connection. The generator drives it
// without net/http's client, whose per-request goroutine hand-offs held
// the generator alone to about 8 000 requests/s on a 2-vCPU Xeon @ 2.1 GHz,
// below what the service sustains, and whose CPU would count in
// http_rps_per_cpu: it writes each request from a reused buffer and reads
// the response with http.ReadResponse. A failed request
// closes the connection; the next one redials.
type loadConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// newConns returns one connection per sender to the server at addr
// (host:port); they dial on first use.
func newConns(addr string) []*loadConn {
	out := make([]*loadConn, loadSenders)
	for i := range out {
		out[i] = &loadConn{addr: addr}
	}
	return out
}

// closeConns closes the connections.
func closeConns(cs []*loadConn) {
	for _, c := range cs {
		c.close()
	}
}

func (c *loadConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

// do sends one request, tagged with the request id header, and returns the
// status and body of the response; body is nil for a GET.
func (c *loadConn) do(method, path string, id int, body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	b := append(c.buf[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	b = append(b, "\r\n"+requestIDHeader+": "...)
	b = strconv.AppendInt(b, int64(id), 10)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.buf = b
	status, resp, keep, err := c.roundTrip(b)
	if err != nil || !keep {
		c.close()
	}
	return status, resp, err
}

// roundTrip writes a request and reads its response; keep is false when the
// server closes the connection.
func (c *loadConn) roundTrip(req []byte) (status int, body []byte, keep bool, err error) {
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, false, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, false, err
	}
	return resp.StatusCode, body, !resp.Close, nil
}

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRung offers n requests at the given rate; do sends request i over
// connection c and reports success, with an optional check of the response.
// The checks run after the rung, so validating responses takes no CPU from
// the load.
func runRung(conns []*loadConn, rate float64, n int, do func(c *loadConn, i int) (ok bool, check func())) rungResult {
	res := rungResult{rate: rate, samples: make([]sample, n)}
	interval := float64(time.Second) / rate
	res.schedule = time.Duration(float64(n-1) * interval)
	checks := make([]func(), n)
	var next atomic.Int64
	backlog := make([]int, len(conns))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *loadConn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				dueAt := time.Duration(float64(i) * interval)
				if wait := dueAt - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				if b := int(float64(sent)/interval) + 1 - (i + 1); b > backlog[w] {
					backlog[w] = b
				}
				ok, check := do(c, i)
				done := time.Since(start)
				checks[i] = check
				s := sample{lagMs: ms(sent - dueAt), latMs: ms(done - dueAt), ok: ok}
				if !ok {
					s.latMs = failedMs
				}
				res.samples[i] = s
			}
		}(w, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	for _, check := range checks {
		if check != nil {
			check()
		}
	}
	for _, b := range backlog {
		res.backlogMax = max(res.backlogMax, b)
	}
	return res
}
