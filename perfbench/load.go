package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The load generators send from at most GOMAXPROCS goroutines over as
// many connections. internal/serve/loadgen is closed-loop only; the
// open loop here times each quote from when it was due, so a stall
// counts against every quote it delays, and reports its own lateness.

type quoteReq struct {
	Contract int `json:"contract"`
	Trials   int `json:"trials"`
}

// quoteMix draws n quotes: contracts uniform over the book, and in each
// block of ten one quote, at a drawn position, asks for large trials
// and the rest for small.
func quoteMix(rng *rand.Rand, n, contracts, small, large int) []quoteReq {
	out := make([]quoteReq, n)
	big := 0
	for i := range out {
		if i%10 == 0 {
			big = i + rng.IntN(10)
		}
		out[i] = quoteReq{Contract: rng.IntN(contracts), Trials: small}
		if i == big {
			out[i].Trials = large
		}
	}
	return out
}

// newRand is the generator every seeded draw of a run comes from.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

// poissonArrivals returns n due times, offsets from the phase start,
// of a Poisson process with the given rate per second.
func poissonArrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// call is one request as the generator saw it. Times are offsets from
// the phase start; an open-loop call is due at due, a closed-loop call
// is due when it is sent.
type call struct {
	id              int64
	req             quoteReq
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
}

func (c *call) latency() time.Duration { return c.done - c.due }

// client sends requests to the desk, tagging each with its request id
// and, when tracing, with the span that parents the server's span.
type client struct {
	base string
	http *http.Client
	tr   *tracer // nil when untraced
}

// do sends one request for c, which is due at phaseStart+c.due, and
// fills in its timing and answer.
func (cl *client) do(ctx context.Context, phaseStart time.Time, c *call, method, path string, body []byte) {
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("X-Perfbench-Req", strconv.FormatInt(c.id, 10))
	var sp span
	if cl.tr != nil {
		name, _, _ := strings.Cut(strings.TrimPrefix(path, "/v1/"), "?")
		sp = span{ID: cl.tr.newID(), Req: c.id, Name: "loadgen." + name}
		req.Header.Set("X-Perfbench-Span", strconv.FormatInt(sp.ID, 10))
	}
	c.sent = time.Since(phaseStart)
	resp, err := cl.http.Do(req)
	if err == nil {
		c.status = resp.StatusCode
		c.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	c.done = time.Since(phaseStart)
	c.err = err
	if cl.tr != nil {
		base := int64(phaseStart.Sub(cl.tr.origin))
		sp.Start, sp.End = base+int64(c.due), base+int64(c.done)
		cl.tr.add(sp)
	}
}

func (cl *client) quote(ctx context.Context, phaseStart time.Time, c *call) {
	body, err := json.Marshal(c.req)
	if err != nil {
		c.err = err
		return
	}
	cl.do(ctx, phaseStart, c, http.MethodPost, "/v1/quote", body)
}

// openLoop sends quote i at arrivals[i] after the phase start, or as
// soon as one of the senders is free when all are busy, and waits for
// every answer.
func (cl *client) openLoop(ctx context.Context, reqs []quoteReq, arrivals []time.Duration, senders int, firstID int64) []call {
	calls := make([]call, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				c := &calls[i]
				c.id, c.req, c.due = firstID+int64(i), reqs[i], arrivals[i]
				if wait := c.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				cl.quote(ctx, start, c)
			}
		}()
	}
	wg.Wait()
	return calls
}

// closedLoop has each sender issue its next request as soon as the last
// one is answered, until dur has passed or the n requests are used up.
// It returns the calls made and the time from the phase start to the
// last answer.
func (cl *client) closedLoop(ctx context.Context, n, senders int, dur time.Duration, firstID int64, send func(start time.Time, c *call, i int)) ([]call, time.Duration) {
	calls := make([]call, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				c := &calls[i]
				c.id = firstID + int64(i)
				c.due = time.Since(start)
				send(start, c, i)
			}
		}()
	}
	wg.Wait()
	// A sender draws an index only once it has checked the time, so every
	// drawn index below n was sent.
	calls = calls[:min(int(next.Load()), n)]
	var last time.Duration
	for _, c := range calls {
		last = max(last, c.done)
	}
	return calls, last
}

// cubePath is the cube read of one filter, or its check=direct form.
func cubePath(f map[string]string, direct bool) string {
	q := url.Values{}
	for k, v := range f {
		q.Set(k, v)
	}
	if direct {
		q.Set("check", "direct")
	}
	return "/v1/cube?" + q.Encode()
}

// get fetches path and requires a 200 answer.
func (cl *client) get(ctx context.Context, path string) ([]byte, error) {
	c := call{}
	cl.do(ctx, time.Now(), &c, http.MethodGet, path, nil)
	if c.err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, c.err)
	}
	if c.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, c.status, c.body)
	}
	return c.body, nil
}
