package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection of the load generator.
// Requests are pre-rendered bytes, so the generator's own work per
// call is a write, a response parse and two byte comparisons — it
// shares the box with the servers it measures.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// callTimeout bounds one round trip; a server that stalls longer is
// treated as dead and fails the run.
const callTimeout = 10 * time.Second

// roundTrip sends one pre-rendered request and reads the whole answer.
// The returned body is valid until the next call.
func (c *conn) roundTrip(req []byte) (status int, contentType string, body []byte, err error) {
	c.c.SetDeadline(time.Now().Add(callTimeout))
	if _, err = c.c.Write(req); err != nil {
		return 0, "", nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, "", nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), c.body.Bytes(), nil
}

// renderRequest builds the wire bytes of one call.
func renderRequest(host, path, session, body string) []byte {
	s := "POST " + path + " HTTP/1.1\r\nHost: " + host + "\r\n"
	if session != "" {
		s += "X-LCE-Session: " + session + "\r\n"
	}
	s += fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	return []byte(s)
}

// target is one endpoint the generator drives with a set of sessions,
// every (session, step) request pre-rendered for it.
type target struct {
	addr     string
	sessions []*session
	want     []expect // per cycle step
}

func newTarget(addr string, sessions []*session, want []expect) *target {
	for _, s := range sessions {
		s.reqs = make([][]byte, len(cycle))
		for i, st := range cycle {
			s.reqs[i] = renderRequest(addr, stepPath(st), s.name, stepBody(st))
		}
	}
	return &target{addr: addr, sessions: sessions, want: want}
}

// stageResult is what one timed stage produced: a sample per
// verified-correct op that completed inside the stage.
type stageResult struct {
	samples   []sample
	dur       time.Duration
	attempted int
	failed    int // wrong status, content type or body
}

// closedLoop runs op on the given number of client goroutines until dur
// has passed: each client starts its next op only when its previous
// one has returned. An op reports whether its answer was correct; an
// error aborts the stage — a dead server must fail the run, not
// shorten it. Ops that complete past the stage's end are not measured.
func closedLoop(clients int, dur time.Duration, op func(client int) (correct bool, err error)) (*stageResult, error) {
	outs := make([]stageResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range outs {
		wg.Add(1)
		go func(i int, out *stageResult) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				correct, err := op(i)
				t1 := time.Now()
				if err != nil {
					errs[i] = err
					return
				}
				if t1.Sub(start) >= dur {
					return
				}
				out.attempted++
				if !correct {
					out.failed++
					continue
				}
				out.samples = append(out.samples, sample{at: t1.Sub(start), ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6})
			}
		}(i, &outs[i])
	}
	wg.Wait()
	res := &stageResult{dur: dur}
	for i := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.attempted += outs[i].attempted
		res.failed += outs[i].failed
		res.samples = append(res.samples, outs[i].samples...)
	}
	return res, nil
}

// runStage drives the target for dur with closed-loop clients, each
// over its own connection and its own disjoint share of the sessions.
// stage seeds the session choice, so every stage of a run draws its
// own stream.
func runStage(t *target, seed int64, stage, clients int, dur time.Duration) (*stageResult, error) {
	conns := make([]*conn, clients)
	pickers := make([]*picker, clients)
	for i := range conns {
		c, err := dial(t.addr)
		if err != nil {
			return nil, fmt.Errorf("stage %d: %w", stage, err)
		}
		defer c.close()
		conns[i] = c
		var mine []*session
		for j := i; j < len(t.sessions); j += clients {
			mine = append(mine, t.sessions[j])
		}
		pickers[i] = newPicker(seed, stage, i, mine)
	}
	res, err := closedLoop(clients, dur, func(i int) (bool, error) {
		s := pickers[i].next()
		k := s.n % len(cycle)
		status, ct, body, err := conns[i].roundTrip(s.reqs[k])
		if err != nil {
			return false, fmt.Errorf("session %s op %d (%s): %w", s.name, s.n, stepPath(cycle[k]), err)
		}
		s.n++
		return t.want[k].matches(status, ct, body), nil
	})
	if err != nil {
		return nil, fmt.Errorf("stage %d: %w", stage, err)
	}
	return res, nil
}

// runSteps executes steps [from, to) of every session's script once,
// in session order, over one connection — set-up's base-world load.
// Any wrong answer is an error: set-up must not start a run on a
// broken world.
func runSteps(t *target, from, to int) error {
	c, err := dial(t.addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, s := range t.sessions {
		for k := from; k < to; k++ {
			status, ct, body, err := c.roundTrip(s.reqs[k])
			if err != nil {
				return err
			}
			if !t.want[k].matches(status, ct, body) {
				return fmt.Errorf("session %s step %d (%s): unexpected answer %d %q", s.name, k, stepPath(cycle[k]), status, body)
			}
			s.n++
		}
	}
	return nil
}
