package httpapi_test

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"lce"
	"lce/internal/h1"
	"lce/internal/httpapi"
	"lce/internal/tenant"
)

// cycleSteps is the benchmark's 22-call cycle (httpapi.CycleSteps).
var cycleSteps = httpapi.CycleSteps

// Indexes into cycleSteps the alloc-budget test singles out.
const (
	stepDescribe = 7  // DescribeSubnets over two subnets
	stepError    = 10 // DeleteVpc answering DependencyViolation
)

// discardWriter is the cheapest legal http.ResponseWriter, so what the
// harness allocates stays out of the handler's numbers.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// cycleDriver replays the cycle into a handler with requests built
// once: per call it rewinds and re-attaches the body (a capturing
// handler swaps r.Body) and clears the response headers, nothing else.
type cycleDriver struct {
	h       http.Handler
	reqs    []*http.Request
	readers []*strings.Reader
	bodies  []io.ReadCloser
	raw     []string
	w       discardWriter
}

func newCycleDriver(h http.Handler) *cycleDriver {
	d := &cycleDriver{h: h, w: discardWriter{h: http.Header{}}}
	for _, s := range cycleSteps {
		body := s.Body()
		rd := strings.NewReader(body)
		req := httptest.NewRequest("POST", s.Path(), nil)
		req.Header.Set(httpapi.SessionHeader, "s00")
		d.reqs, d.readers, d.raw = append(d.reqs, req), append(d.readers, rd), append(d.raw, body)
		d.bodies = append(d.bodies, io.NopCloser(rd))
	}
	return d
}

// call serves step i and returns the status the handler committed.
func (d *cycleDriver) call(i int) int {
	d.readers[i].Reset(d.raw[i])
	d.reqs[i].Body = d.bodies[i]
	clear(d.w.h)
	d.w.status = 0
	d.h.ServeHTTP(&d.w, d.reqs[i])
	return d.w.status
}

// run serves one whole cycle, failing tb on an unexpected status.
func (d *cycleDriver) run(tb testing.TB) {
	for i, s := range cycleSteps {
		if got := d.call(i); got != s.Status {
			tb.Fatalf("step %d (%s) answered %d, want %d", i, s.Action, got, s.Status)
		}
	}
}

// instrumentedHandler is the node handler as lce-server assembles it
// for the benchmark's hot-direct workload: tracer, registry, ops plane
// and a 64-session pool all on.
func instrumentedHandler(tb testing.TB) http.Handler {
	srv, err := lce.NewServer(lce.ServerConfig{Service: "ec2", Backend: "learned", TraceSeed: 1,
		Sessions: 64, Shards: 8, SessionTTL: 15 * time.Minute, Ops: true})
	if err != nil {
		tb.Fatal(err)
	}
	return srv.Handler
}

// bareHandler is the same backend and pool with no obs and no ops, so
// instrument returns every route untouched.
func bareHandler(tb testing.TB) http.Handler {
	b, err := lce.NewBackend("ec2", "learned", false)
	if err != nil {
		tb.Fatal(err)
	}
	pool, err := tenant.New(lce.FactoryFor(b, lce.ServerConfig{}), tenant.Config{Shards: 8, Capacity: 64, IdleTTL: 15 * time.Minute})
	if err != nil {
		tb.Fatal(err)
	}
	return httpapi.New(b, httpapi.WithPool(pool))
}

// BenchmarkHandlerCycle prices the observability wrapper: the 22-call
// cycle through the bare handler and through the fully instrumented
// one, and — because this kind of box drifts by tens of percent between
// two sub-benchmarks — a third run that alternates the two cycle by
// cycle and reports their ratio directly. The ratio and the allocs/req
// metric are the numbers DESIGN §12's cost model quotes; run it long
// enough to fill the span ring (-benchtime 2000x), or the instrumented
// side is measured on a heap it never has in a live server.
func BenchmarkHandlerCycle(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func(testing.TB) http.Handler
	}{{"bare", bareHandler}, {"instrumented", instrumentedHandler}} {
		b.Run(c.name, func(b *testing.B) {
			d := newCycleDriver(c.build(b))
			d.run(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.run(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cycleSteps)), "ns/req")
			b.ReportMetric(float64(testing.AllocsPerRun(20, func() { d.run(b) }))/float64(len(cycleSteps)), "allocs/req")
		})
	}
	b.Run("ratio", func(b *testing.B) {
		bare, inst := newCycleDriver(bareHandler(b)), newCycleDriver(instrumentedHandler(b))
		bare.run(b)
		inst.run(b)
		var bareTime, instTime time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			bare.run(b)
			t1 := time.Now()
			inst.run(b)
			bareTime += t1.Sub(t0)
			instTime += time.Since(t1)
		}
		b.ReportMetric(float64(instTime)/float64(bareTime), "instrumented/bare")
	})
}

// servedDriver replays the cycle through the HTTP/1.1 front lce-server
// listens through, over one loopback keep-alive connection, with every
// request pre-rendered the way the benchmark's load generator renders
// it. Its client reads each answer with a few slice scans and no
// allocation, so allocs/req is the server's.
type servedDriver struct {
	front *h1.Server
	c     net.Conn
	br    *bufio.Reader
	reqs  [][]byte
}

func newServedDriver(tb testing.TB, h http.Handler) *servedDriver {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	d := &servedDriver{front: h1.New(h, time.Minute, time.Minute)}
	go d.front.Serve(ln)
	tb.Cleanup(func() { d.front.Close() })
	if d.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		tb.Fatal(err)
	}
	d.br = bufio.NewReaderSize(d.c, 16<<10)
	for _, s := range cycleSteps {
		body := s.Body()
		d.reqs = append(d.reqs, []byte("POST "+s.Path()+" HTTP/1.1\r\nHost: "+ln.Addr().String()+
			"\r\nX-LCE-Session: s00\r\nContent-Type: application/json\r\nContent-Length: "+
			strconv.Itoa(len(body))+"\r\n\r\n"+body))
	}
	return d
}

// call serves step i and returns the answer's status.
func (d *servedDriver) call(tb testing.TB, i int) int {
	if _, err := d.c.Write(d.reqs[i]); err != nil {
		tb.Fatal(err)
	}
	line, err := d.br.ReadSlice('\n')
	if err != nil || len(line) < len("HTTP/1.1 200") {
		tb.Fatalf("status line %q: %v", line, err)
	}
	status, _ := strconv.Atoi(string(line[9:12]))
	n := 0
	for {
		line, err = d.br.ReadSlice('\n')
		if err != nil {
			tb.Fatal(err)
		}
		if len(line) == 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
		}
	}
	if _, err := d.br.Discard(n); err != nil {
		tb.Fatal(err)
	}
	return status
}

func (d *servedDriver) run(tb testing.TB) {
	for i, s := range cycleSteps {
		if got := d.call(tb, i); got != s.Status {
			tb.Fatalf("step %d (%s) answered %d, want %d", i, s.Action, got, s.Status)
		}
	}
}

// BenchmarkServedCycle prices the server around the handler: the
// 22-call cycle through the fully instrumented node handler served by
// the front on a loopback listener, beside BenchmarkHandlerCycle's
// in-process instrumented run. "served" reports ns/req and allocs/req
// (client included, though it allocates nothing); "ratio" alternates a
// served cycle with an in-process one, cycle by cycle, and reports
// served/instrumented — what the listener, the socket and the wire
// add to the handler.
func BenchmarkServedCycle(b *testing.B) {
	b.Run("served", func(b *testing.B) {
		d := newServedDriver(b, instrumentedHandler(b))
		d.run(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.run(b)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cycleSteps)), "ns/req")
		b.ReportMetric(float64(testing.AllocsPerRun(20, func() { d.run(b) }))/float64(len(cycleSteps)), "allocs/req")
	})
	b.Run("ratio", func(b *testing.B) {
		served, inst := newServedDriver(b, instrumentedHandler(b)), newCycleDriver(instrumentedHandler(b))
		served.run(b)
		inst.run(b)
		var servedTime, instTime time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			inst.run(b)
			t1 := time.Now()
			served.run(b)
			instTime += t1.Sub(t0)
			servedTime += time.Since(t1)
		}
		b.ReportMetric(float64(servedTime)/float64(instTime), "served/instrumented")
	})
}
