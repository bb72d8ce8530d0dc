package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/httpapi"
)

// events multiplexes every live node's /debug/events SSE stream into
// one: a goroutine per node tails the node's stream, and complete
// frames are relayed through a locked writer with a `: node <name>`
// comment prepended, so one `curl /debug/events` on the router
// watches the whole fleet. Query parameters (session, service, kind
// filters) pass through to every node untouched.
func (rt *Router) events(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		rt.writeError(w, http.StatusServiceUnavailable, rt.requestID(r), cloudapi.CodeServiceUnavailable, "streaming unsupported")
		return
	}
	nodes := rt.liveNodes()
	if len(nodes) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, rt.requestID(r), cloudapi.CodeServiceUnavailable, "no healthy node")
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set(httpapi.APIVersionHeader, httpapi.APIVersionCluster)
	w.WriteHeader(http.StatusOK)

	var mu sync.Mutex // one frame at a time onto the shared wire
	write := func(frame string) {
		mu.Lock()
		defer mu.Unlock()
		_, _ = fmt.Fprint(w, frame)
		flusher.Flush()
	}
	write(fmt.Sprintf(": cluster stream open (%d nodes)\n\n", len(nodes)))

	// Streams never time out on the node side; use an untimed client
	// so the router side doesn't cut them either.
	client := &http.Client{Transport: rt.client.Transport}

	retryMax := rt.cfg.SSERetryMax
	if retryMax <= 0 {
		retryMax = 2 * time.Second
	}

	var wg sync.WaitGroup
	for _, st := range nodes {
		wg.Add(1)
		go func(st *nodeState) {
			defer wg.Done()
			u := st.url + "/debug/events"
			if q := r.URL.RawQuery; q != "" {
				u += "?" + q
			}
			rt.relayNode(r.Context(), client, st, u, retryMax, write)
		}(st)
	}
	wg.Wait()
}

// relayNode tails one node's /debug/events for the life of the client
// request, reconnecting with capped exponential backoff whenever the
// node drops the stream (restart, kill -9, transient network fault) —
// a restarted node rejoins the merged stream instead of silently
// falling out of it. Each transition is announced as an SSE comment so
// a watching operator sees the gap.
func (rt *Router) relayNode(ctx context.Context, client *http.Client, st *nodeState, u string, retryMax time.Duration, write func(string)) {
	backoff := retryMax / 16
	if backoff <= 0 {
		backoff = retryMax
	}
	connected := false
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if err == nil {
			if connected {
				write(fmt.Sprintf(": node %s reconnected\n\n", st.name))
			}
			connected = true
			backoff = retryMax / 16
			relayFrames(resp.Body, st.name, write)
			resp.Body.Close()
			if ctx.Err() != nil {
				return
			}
			write(fmt.Sprintf(": node %s disconnected\n\n", st.name))
		} else if ctx.Err() != nil {
			return
		} else if attempt == 0 {
			write(fmt.Sprintf(": node %s unreachable\n\n", st.name))
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > retryMax {
			backoff = retryMax
		}
	}
}

// relayFrames splits an SSE byte stream into frames (blank-line
// separated) and hands each one — tagged with its origin node — to
// write. Keepalive comment frames pass through too: they keep the
// merged stream's idle-detection behaviour identical to a node's.
func relayFrames(body io.Reader, node string, write func(string)) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var frame strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if frame.Len() > 0 {
				write(fmt.Sprintf(": node %s\n%s\n", node, frame.String()))
				frame.Reset()
			}
			continue
		}
		frame.WriteString(line)
		frame.WriteByte('\n')
	}
	if frame.Len() > 0 {
		write(fmt.Sprintf(": node %s\n%s\n", node, frame.String()))
	}
}
