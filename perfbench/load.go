package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// sample is one timed request.
type sample struct {
	class  string
	client int // index of the client that sent it
	req    *request
	ttfb   time.Duration // POST to the first complete network line
	total  time.Duration // POST to the last byte
	body   []byte        // kept for misses and shares, checked after the window
	err    error         // transport, status or output-check failure
}

// client is one closed-loop load generator connection: it sends its next
// request only after the previous response has been read to the end.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and reads the whole response. keep retains the body in the
// sample; otherwise it is only valid until the client's next request.
// onWrote, when non-nil, is called once the request has been written to
// the connection.
func (c *client) do(class string, r *request, keep bool, onWrote func()) (sample, []byte) {
	s := sample{class: class, req: r}
	ctx := context.Background()
	if onWrote != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { onWrote() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/generate", bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s, nil
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		return s, nil
	}
	defer resp.Body.Close()
	c.buf.Reset()
	var chunk [32 << 10]byte
	for {
		n, rerr := resp.Body.Read(chunk[:])
		if n > 0 {
			if s.ttfb == 0 && bytes.IndexByte(chunk[:n], '\n') >= 0 {
				s.ttfb = time.Since(start)
			}
			c.buf.Write(chunk[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			s.err = fmt.Errorf("reading body: %w", rerr)
			return s, nil
		}
	}
	s.total = time.Since(start)
	body := c.buf.Bytes()
	switch {
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(body))
	case resp.Header.Get("X-Cold-Config-Hash") != r.hash:
		s.err = fmt.Errorf("config hash header %q, want %q", resp.Header.Get("X-Cold-Config-Hash"), r.hash)
	case class == classHit && resp.Header.Get("X-Cold-Cache") != "hit":
		s.err = fmt.Errorf("expected a cache hit, got %q", resp.Header.Get("X-Cold-Cache"))
	case class != classHit && resp.Header.Get("X-Cold-Cache") != "miss":
		s.err = fmt.Errorf("expected a generation (miss), got %q", resp.Header.Get("X-Cold-Cache"))
	}
	if keep {
		s.body = bytes.Clone(body)
	}
	return s, body
}

// announced is a miss the generating client has written to its
// connection, so the hit client can join it joinAfter later.
type announced struct {
	r  *request
	at time.Time
}

// window is what the timed part of a server run measured.
type window struct {
	samples []sample
	wall    time.Duration    // first request sent to last response read
	busy    [2]time.Duration // per client: first request sent to its own last response
	cpu     time.Duration    // coldd user+system CPU over the window
	steal   float64          // share of the machine's CPU time stolen by the hypervisor
}

// rate is the throughput of the samples keep selects: the sum over
// clients of each client's count over its own busy time. Summing
// per-client rates keeps the drain at the end of a window, when one
// client has finished and the other is still waiting, out of the figure.
func (w *window) rate(keep func(*sample) bool) float64 {
	var n [2]float64
	for i := range w.samples {
		if s := &w.samples[i]; keep(s) {
			n[s.client]++
		}
	}
	var r float64
	for c := range n {
		if n[c] > 0 {
			r += n[c] / w.busy[c].Seconds()
		}
	}
	return r
}

// runLoad drives the workload's two clients until the deadline, then lets
// in-flight requests finish, so every request sent is counted and the wall
// time ends at the last response rather than at a fixed cut.
//
// Client roles: a miss-only workload runs two generating clients; a hit-only
// workload runs two hit clients; a mixed workload runs one generating
// client and one hit client that, once per miss the generator has put in
// flight, sends the same config to join it. The join waits w.joinAfter
// after the miss was sent, well inside the miss's generation time: a join
// holds the hit client's only connection until the miss completes, so
// joining at once would leave no hits to time while generation runs.
func runLoad(d *daemon, w *workload, clients [2]*client, misses [2][]*request, hits []*request,
	stored map[string][]byte, hitOrder [2][]int, seconds float64) (*window, error) {
	type clientRun struct {
		client  int
		samples []sample
		busy    time.Duration
	}
	results := make(chan clientRun, 2) // one send per client goroutine
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	missLoop := func(id int, c *client, reqs []*request, joins chan<- announced) {
		var out []sample
		for i := 0; i < len(reqs) && time.Now().Before(deadline); i++ {
			r := reqs[i]
			var onWrote func()
			if joins != nil {
				var once sync.Once
				onWrote = func() { once.Do(func() { joins <- announced{r, time.Now()} }) }
			}
			s, _ := c.do(classMiss, r, true, onWrote)
			out = append(out, s)
		}
		if joins != nil {
			close(joins)
		}
		for i := range out {
			out[i].client = id
		}
		results <- clientRun{id, out, time.Since(start)}
	}
	hitLoop := func(id int, c *client, order []int, joins <-chan announced) {
		var out []sample
		var pending []announced
		for i := 0; ; {
			// Collect the misses the generator has put in flight.
		collect:
			for joins != nil {
				select {
				case a, ok := <-joins:
					if !ok {
						joins = nil
						break collect
					}
					pending = append(pending, a)
				default:
					break collect
				}
			}
			if len(pending) > 0 {
				if wait := time.Until(pending[0].at.Add(w.joinAfter)); wait <= 0 || !time.Now().Before(deadline) {
					// Past the deadline only the remaining joins are sent.
					time.Sleep(wait)
					s, _ := c.do(classShare, pending[0].r, true, nil)
					out = append(out, s)
					pending = pending[1:]
					continue
				}
			}
			if !time.Now().Before(deadline) {
				if joins == nil {
					break
				}
				if a, ok := <-joins; ok {
					pending = append(pending, a)
				} else {
					joins = nil
				}
				continue
			}
			r := hits[order[i%len(order)]]
			i++
			s, body := c.do(classHit, r, false, nil)
			if s.err == nil && !bytes.Equal(body, stored[r.hash]) {
				s.err = fmt.Errorf("hit body for %s differs from the bytes first generated", r.hash[:12])
			}
			out = append(out, s)
		}
		for i := range out {
			out[i].client = id
		}
		results <- clientRun{id, out, time.Since(start)}
	}

	switch {
	case w.miss != nil && w.hit == nil:
		go missLoop(0, clients[0], misses[0], nil)
		go missLoop(1, clients[1], misses[1], nil)
	case w.miss == nil:
		go hitLoop(0, clients[0], hitOrder[0], nil)
		go hitLoop(1, clients[1], hitOrder[1], nil)
	default:
		// Buffered to the number of misses, so the generator never waits
		// on the hit client to take a join.
		joins := make(chan announced, len(misses[0]))
		go missLoop(0, clients[0], misses[0], joins)
		go hitLoop(1, clients[1], hitOrder[1], joins)
	}
	var runs [2]clientRun
	for range 2 {
		cr := <-results
		runs[cr.client] = cr
	}
	// Client order, not finishing order, so seed-chosen samples are the
	// same requests on every run.
	win := &window{}
	for _, cr := range runs {
		win.samples = append(win.samples, cr.samples...)
		win.busy[cr.client] = cr.busy
	}
	win.wall = time.Since(start)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	win.cpu = cpu1 - cpu0
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	if total1 > total0 {
		win.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return win, nil
}
