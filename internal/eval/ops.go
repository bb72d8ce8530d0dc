package eval

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/httpapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
)

// OpsRow is one cell of the operations-plane overhead benchmark: the
// same request load pushed through the HTTP surface with the plane off
// (plain per-route metrics only) and on (dimensional vecs, exemplars,
// SLO recording, flight capture, event bus). The deltas quantify what
// "pay for what you use" costs when you do use it.
type OpsRow struct {
	Mode     string // "off" | "on"
	Requests int
	Elapsed  time.Duration
	// AllocBytes/Allocs are the heap deltas across the run, from
	// runtime.MemStats (TotalAlloc / Mallocs).
	AllocBytes uint64
	Allocs     uint64
	NumGC      uint32
}

// PerRequest returns the mean request latency.
func (r OpsRow) PerRequest() time.Duration {
	if r.Requests == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Requests)
}

// AllocsPerRequest returns the mean allocation count per request.
func (r OpsRow) AllocsPerRequest() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Allocs) / float64(r.Requests)
}

// OpsOverhead drives `requests` invoke calls through an in-process
// HTTP server over the EC2 oracle, once per mode. Both modes run the
// tracer (the pre-ops baseline already traces); "on" additionally
// mounts the full operations plane with an SSE subscriber attached —
// the realistic worst case, since an idle bus short-circuits.
func OpsOverhead(requests int) ([]OpsRow, error) {
	rows := make([]OpsRow, 0, 2)
	for _, mode := range []string{"off", "on"} {
		row, err := opsRun(mode, requests)
		if err != nil {
			return nil, fmt.Errorf("ops overhead (%s): %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func opsRun(mode string, requests int) (OpsRow, error) {
	b := ec2.New()
	ob := obsv.New(1, 0)
	opts := []httpapi.Option{httpapi.WithObs(ob)}
	var plane *opsplane.Plane
	if mode == "on" {
		plane = opsplane.New(opsplane.Config{Service: b.Service(), Obs: ob})
		opts = append(opts, httpapi.WithOps(plane))
	}
	srv := httptest.NewServer(httpapi.New(b, opts...))
	defer srv.Close()

	if plane != nil {
		// A live subscriber forces the bus onto its publish path.
		sub := plane.Bus.Subscribe(opsplane.Filter{}, opsplane.DefaultSubscriberBuffer)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range sub.Events() {
			}
		}()
		defer func() { sub.Close(); <-done }()
	}

	body := `{"params":{}}`
	client := srv.Client()
	// Warm the connection and route outside the measured window.
	if err := opsPost(client, srv.URL, body); err != nil {
		return OpsRow{}, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < requests; i++ {
		if err := opsPost(client, srv.URL, body); err != nil {
			return OpsRow{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	return OpsRow{
		Mode:       mode,
		Requests:   requests,
		Elapsed:    elapsed,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Allocs:     after.Mallocs - before.Mallocs,
		NumGC:      after.NumGC - before.NumGC,
	}, nil
}

func opsPost(c *http.Client, url, body string) error {
	resp, err := c.Post(url+"/v2/ec2?Action=DescribeVpcs", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("invoke: HTTP %d", resp.StatusCode)
	}
	return nil
}

// FormatOps renders the overhead table.
func FormatOps(rows []OpsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Operations-plane overhead (%d in-process HTTP invokes, EC2 oracle):\n", rows[0].Requests)
	for _, r := range rows {
		fmt.Fprintf(&b, "  ops %-3s  %8s/req  %6.0f allocs/req  %7.1f KB/req  (elapsed %s, %d GCs)\n",
			r.Mode, r.PerRequest().Round(time.Microsecond), r.AllocsPerRequest(),
			float64(r.AllocBytes)/float64(max(r.Requests, 1))/1024, r.Elapsed.Round(time.Millisecond), r.NumGC)
	}
	if len(rows) == 2 && rows[0].PerRequest() > 0 {
		fmt.Fprintf(&b, "  overhead: %+.1f%% latency, %+.0f allocs/req\n",
			100*(float64(rows[1].PerRequest())/float64(rows[0].PerRequest())-1),
			rows[1].AllocsPerRequest()-rows[0].AllocsPerRequest())
	}
	return b.String()
}
