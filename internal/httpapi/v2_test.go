package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/fault"
	"lce/internal/obsv"
	"lce/internal/retry"
	"lce/internal/tenant"
)

// newPoolServer serves an EC2 oracle behind a tenant pool.
func newPoolServer(t *testing.T, cfg tenant.Config, opts ...Option) (*httptest.Server, *Client, *tenant.Pool) {
	t.Helper()
	pool, err := tenant.New(ec2.Factory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(ec2.New(), append([]Option{WithPool(pool)}, opts...)...))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL), pool
}

func createVpc(t *testing.T, b cloudapi.Backend, cidr string) {
	t.Helper()
	if _, err := b.Invoke(cloudapi.Request{
		Action: "CreateVpc",
		Params: cloudapi.Params{"cidrBlock": cloudapi.Str(cidr)},
	}); err != nil {
		t.Fatal(err)
	}
}

func vpcCount(t *testing.T, b cloudapi.Backend) int {
	t.Helper()
	res, err := b.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Get("vpcs").AsList())
}

// TestV2InvokeQueryAction: the v2 route takes the action as a query
// parameter, returns the success envelope with a RequestId, and
// rejects a mismatched service path with the InvalidService envelope.
func TestV2InvokeQueryAction(t *testing.T) {
	srv, _, _ := newPoolServer(t, tenant.Config{})
	resp, err := http.Post(srv.URL+"/v2/ec2?Action=CreateVpc", "application/json",
		strings.NewReader(`{"params":{"cidrBlock":"10.0.0.0/16"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var reply struct {
		RequestID string                    `json:"RequestId"`
		Result    map[string]cloudapi.Value `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.RequestID == "" {
		t.Error("v2 success response carries no RequestId")
	}
	if reply.Result["vpcId"].AsString() == "" {
		t.Errorf("result = %v", reply.Result)
	}

	// Wrong service in the path: 404 with the unified envelope.
	resp2, err := http.Post(srv.URL+"/v2/dynamodb?Action=CreateVpc", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("mismatched service status = %d, want 404", resp2.StatusCode)
	}
	var we wireError
	if err := json.NewDecoder(resp2.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if !we.IsError || we.Code != cloudapi.CodeInvalidService {
		t.Errorf("envelope = %+v", we)
	}
}

// TestSessionIsolation: two session clients never see each other's
// resources, and a headerless client shares the default session
// untouched by either.
func TestSessionIsolation(t *testing.T) {
	_, base, _ := newPoolServer(t, tenant.Config{})
	alice := base.WithSession("alice")
	bob := base.WithSession("bob")

	createVpc(t, alice, "10.0.0.0/16")
	createVpc(t, alice, "10.1.0.0/16")
	createVpc(t, bob, "10.2.0.0/16")
	createVpc(t, base, "10.3.0.0/16") // headerless: the default session

	if n := vpcCount(t, alice); n != 2 {
		t.Errorf("alice sees %d VPCs, want 2", n)
	}
	if n := vpcCount(t, bob); n != 1 {
		t.Errorf("bob sees %d VPCs, want 1", n)
	}
	if n := vpcCount(t, base); n != 1 {
		t.Errorf("default session sees %d VPCs, want 1", n)
	}
}

// TestSessionScopedReset: Reset clears exactly the caller's session.
func TestSessionScopedReset(t *testing.T) {
	_, base, _ := newPoolServer(t, tenant.Config{})
	alice := base.WithSession("alice")
	bob := base.WithSession("bob")
	createVpc(t, alice, "10.0.0.0/16")
	createVpc(t, bob, "10.1.0.0/16")
	createVpc(t, base, "10.2.0.0/16")

	alice.Reset()

	if n := vpcCount(t, alice); n != 0 {
		t.Errorf("alice has %d VPCs after her reset, want 0", n)
	}
	if n := vpcCount(t, bob); n != 1 {
		t.Errorf("alice's reset wiped bob (%d VPCs)", n)
	}
	if n := vpcCount(t, base); n != 1 {
		t.Errorf("alice's reset wiped the default session (%d VPCs)", n)
	}
}

// TestBatchStopOnFirstError: a stop-mode batch halts at the failing
// request, reports where, and never executes the tail.
func TestBatchStopOnFirstError(t *testing.T) {
	_, base, _ := newPoolServer(t, tenant.Config{})
	c := base.WithSession("batcher")
	res, err := c.Batch([]cloudapi.Request{
		{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}},
		{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/8")}}, // invalid range
		{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.1.0.0/16")}},
	}, BatchModeStop)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 || res.Succeeded != 1 || res.Failed != 1 || res.StoppedAt != 1 {
		t.Errorf("batch = %d items, %d ok, %d failed, stopped at %d; want 2/1/1/1",
			len(res.Items), res.Succeeded, res.Failed, res.StoppedAt)
	}
	if res.RequestID == "" {
		t.Error("batch response carries no RequestId")
	}
	ae, ok := cloudapi.AsAPIError(res.Items[1].Err)
	if !ok || ae.Code != "InvalidVpc.Range" {
		t.Errorf("item 1 error = %v", res.Items[1].Err)
	}
	// The third request must not have executed.
	if n := vpcCount(t, c); n != 1 {
		t.Errorf("session has %d VPCs after stopped batch, want 1", n)
	}
}

// TestBatchBestEffort: best-effort mode executes every request and
// tallies failures without stopping.
func TestBatchBestEffort(t *testing.T) {
	_, base, _ := newPoolServer(t, tenant.Config{})
	c := base.WithSession("batcher")
	res, err := c.Batch([]cloudapi.Request{
		{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}},
		{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/8")}},
		{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.1.0.0/16")}},
	}, BatchModeBestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 3 || res.Succeeded != 2 || res.Failed != 1 || res.StoppedAt != -1 {
		t.Errorf("batch = %d items, %d ok, %d failed, stopped at %d; want 3/2/1/-1",
			len(res.Items), res.Succeeded, res.Failed, res.StoppedAt)
	}
	if n := vpcCount(t, c); n != 2 {
		t.Errorf("session has %d VPCs after best-effort batch, want 2", n)
	}
}

// TestBatchIsOneRoundTrip: a 16-request batch crosses the wire as one
// HTTP request and comes back with all 16 results, which is what makes
// it cheaper than 16 single calls at any round-trip time.
func TestBatchIsOneRoundTrip(t *testing.T) {
	pool, err := tenant.New(ec2.Factory(), tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inner := New(ec2.New(), WithPool(pool))
	var mu sync.Mutex
	var seen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.Path)
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL).WithSession("batcher")
	c.Service() // resolve the route prefix outside the count

	mu.Lock()
	seen = nil
	mu.Unlock()
	reqs := make([]cloudapi.Request, 16)
	for i := range reqs {
		reqs[i] = cloudapi.Request{
			Action: "CreateVpc",
			Params: cloudapi.Params{"cidrBlock": cloudapi.Str(fmt.Sprintf("10.%d.0.0/16", i))},
		}
	}
	res, err := c.Batch(reqs, BatchModeStop)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := seen
	mu.Unlock()
	if len(got) != 1 || got[0] != "POST /v2/ec2/batch" {
		t.Errorf("batch of 16 took requests %q, want one POST /v2/ec2/batch", got)
	}
	if len(res.Items) != 16 || res.Succeeded != 16 || res.Failed != 0 {
		t.Errorf("batch = %d items, %d ok, %d failed; want 16/16/0", len(res.Items), res.Succeeded, res.Failed)
	}
	if n := vpcCount(t, c); n != 16 {
		t.Errorf("session has %d VPCs after the batch, want 16", n)
	}
}

// TestBatchShapeErrors: empty, oversized and unknown-mode batches are
// rejected with the unified envelope before touching the backend.
func TestBatchShapeErrors(t *testing.T) {
	srv, _, _ := newPoolServer(t, tenant.Config{})
	cases := []struct {
		name, body string
	}{
		{"empty", `{"requests":[]}`},
		{"unknown mode", `{"mode":"yolo","requests":[{"action":"DescribeVpcs"}]}`},
		{"oversized", func() string {
			items := make([]string, MaxBatch+1)
			for i := range items {
				items[i] = `{"action":"DescribeVpcs"}`
			}
			return `{"requests":[` + strings.Join(items, ",") + `]}`
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v2/ec2/batch", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 400 {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
			var we wireError
			if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
				t.Fatal(err)
			}
			if !we.IsError || we.Code != "MalformedRequest" || we.RequestID == "" {
				t.Errorf("envelope = %+v", we)
			}
		})
	}
}

// TestSingleTenantRejectsSessions: without a pool, a non-default
// session header is an InvalidSession envelope, and the default
// header still works.
func TestSingleTenantRejectsSessions(t *testing.T) {
	srv := httptest.NewServer(New(ec2.New()))
	defer srv.Close()
	c := NewClient(srv.URL).WithSession("alice")
	_, err := c.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
	ae, ok := cloudapi.AsAPIError(err)
	if !ok || ae.Code != cloudapi.CodeInvalidSession {
		t.Errorf("err = %v, want %s", err, cloudapi.CodeInvalidSession)
	}
	d := NewClient(srv.URL).WithSession(tenant.DefaultSession)
	if _, err := d.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
		t.Errorf("default session rejected on single-tenant server: %v", err)
	}
}

// TestV2SessionsEndpoint: pool servers report occupancy and hit rate.
func TestV2SessionsEndpoint(t *testing.T) {
	srv, base, _ := newPoolServer(t, tenant.Config{Shards: 4})
	createVpc(t, base.WithSession("alice"), "10.0.0.0/16")
	createVpc(t, base.WithSession("bob"), "10.1.0.0/16")
	resp, err := http.Get(srv.URL + "/v2/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Sessions int   `json:"sessions"`
		Shards   int   `json:"shards"`
		PerShard []int `json:"perShard"`
		Misses   int64 `json:"misses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 2 || stats.Shards != 4 || len(stats.PerShard) != 4 || stats.Misses != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestPoolMetricsOnServedRegistry: tenant-pool gauges/counters land
// in the same registry the HTTP layer publishes on /metrics.
func TestPoolMetricsOnServedRegistry(t *testing.T) {
	obs := obsv.New(3, 0)
	srv, base, _ := newPoolServer(t, tenant.Config{Registry: obs.Registry}, WithObs(obs))
	createVpc(t, base.WithSession("alice"), "10.0.0.0/16")
	createVpc(t, base.WithSession("alice"), "10.1.0.0/16")
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, series := range []string{
		obsv.MetricTenantSessions + " 1",
		obsv.MetricTenantMisses + " 1",
		obsv.MetricTenantHits + " 1",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q:\n%s", series, body)
		}
	}
}

// sessionSeq is session i's deterministic workload: a few valid
// creates, one semantic error (which must NOT be retried or change
// state), and for even sessions a mid-sequence reset — enough shape
// variety that any cross-session bleed changes a final state.
func sessionSeq(i int) []cloudapi.Request {
	var reqs []cloudapi.Request
	create := func(cidr string) {
		reqs = append(reqs, cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str(cidr)}})
	}
	for k := 0; k < 3+i%4; k++ {
		create(fmt.Sprintf("10.%d.0.0/16", k))
	}
	create("10.0.0.0/8") // InvalidVpc.Range: a semantic error, state untouched
	if i%2 == 0 {
		reqs = append(reqs, cloudapi.Request{Action: "__reset"})
		create(fmt.Sprintf("172.%d.0.0/16", 16+i%8))
	}
	create(fmt.Sprintf("192.168.%d.0/24", i))
	return reqs
}

// apply runs one workload step against b ("__reset" is the
// session-scoped reset; semantic errors are expected and ignored).
func apply(b cloudapi.Backend, req cloudapi.Request) {
	if req.Action == "__reset" {
		b.Reset()
		return
	}
	_, _ = b.Invoke(req)
}

// TestChaosSoakCrossSessionIsolation is the isolation proof: 64
// goroutines hammer 16 sessions through the v2 wire with 10% fault
// injection in front of every session backend. Each session's
// workload is split into 4 chunks chained in order (so intra-session
// order is deterministic while all 64 goroutines run concurrently),
// and every session's final state must be identical to the
// same sequence replayed serially on a fresh fault-free backend.
// Runs under -race in CI (make chaos).
func TestChaosSoakCrossSessionIsolation(t *testing.T) {
	const (
		sessions  = 16
		chunksPer = 4 // goroutines per session; sessions*chunksPer = 64
	)
	pool, err := tenant.New(fault.Factory(ec2.Factory(), fault.Uniform(0.1, 42)), tenant.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(ec2.New(), WithPool(pool)))
	defer srv.Close()
	policy := retry.Policy{MaxAttempts: fault.DefaultMaxConsecutive + 2, Seed: 9}

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		seq := sessionSeq(i)
		// gates[c] closes when chunk c may start; chunk 0 is open.
		gates := make([]chan struct{}, chunksPer+1)
		for c := range gates {
			gates[c] = make(chan struct{})
		}
		close(gates[0])
		per := (len(seq) + chunksPer - 1) / chunksPer
		for c := 0; c < chunksPer; c++ {
			lo := c * per
			hi := min(lo+per, len(seq))
			wg.Add(1)
			go func(i, c, lo, hi int) {
				defer wg.Done()
				defer close(gates[c+1])
				<-gates[c]
				client := retry.Wrap(
					NewClient(srv.URL).WithSession(fmt.Sprintf("soak-%d", i)),
					retry.Policy{MaxAttempts: policy.MaxAttempts, Seed: int64(i*chunksPer + c)}, nil)
				for _, req := range seq[lo:hi] {
					apply(client, req)
				}
			}(i, c, lo, hi)
		}
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		// Serial replay on a fresh fault-free backend = ground truth.
		serial := ec2.New()
		for _, req := range sessionSeq(i) {
			apply(serial, req)
		}
		want, err := serial.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
		if err != nil {
			t.Fatal(err)
		}
		client := retry.Wrap(NewClient(srv.URL).WithSession(fmt.Sprintf("soak-%d", i)),
			retry.Policy{MaxAttempts: policy.MaxAttempts, Seed: int64(1000 + i)}, nil)
		got, err := client.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
		if err != nil {
			t.Fatalf("session %d: final describe: %v", i, err)
		}
		if !cloudapitest.DeepEqual(cloudapi.NormalizeResult(got), cloudapi.NormalizeResult(want)) {
			t.Errorf("session %d diverged from serial replay:\n got %v\nwant %v", i, got, want)
		}
	}

	// The soak is only meaningful if chaos actually fired: every
	// session backend logs its injected faults.
	st := pool.Stats()
	if st.Sessions != sessions {
		t.Errorf("pool holds %d sessions, want %d", st.Sessions, sessions)
	}
}

// TestClientBatchRefusesOversizeReply: a reply past MaxBody is an
// error naming the limit, not a truncated body that fails to decode
// (or, worse, decodes); a reply of exactly MaxBody bytes still reads.
func TestClientBatchRefusesOversizeReply(t *testing.T) {
	if data, err := ReadBounded(strings.NewReader(strings.Repeat("x", MaxBody)), MaxBody); err != nil || len(data) != MaxBody {
		t.Fatalf("a body of exactly MaxBody bytes: len %d, err %v", len(data), err)
	}
	if _, err := ReadBounded(strings.NewReader(strings.Repeat("x", MaxBody+1)), MaxBody); err == nil {
		t.Fatal("a body one byte past MaxBody read without error")
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/actions" {
			_, _ = w.Write([]byte(`{"service":"ec2","actions":[]}`))
			return
		}
		// A well-formed batch reply, padded past the cap inside a string.
		_, _ = w.Write([]byte(`{"mode":"stop","items":[],"succeeded":0,"failed":0,"RequestId":"` + strings.Repeat("r", MaxBody) + `"}`))
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).WithSession("s").Batch([]cloudapi.Request{{Action: "DescribeVpcs"}}, "")
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1048576-byte limit") {
		t.Fatalf("oversize batch reply: err = %v, want the body-limit error", err)
	}
}

// TestQueryValueMatchesURLQuery: the map-free query lookup the request
// path uses answers exactly what r.URL.Query().Get would, over random
// queries dense in the characters that matter (separators, escapes,
// bad escapes, semicolons, repeated and empty keys).
func TestQueryValueMatchesURLQuery(t *testing.T) {
	const alphabet = "Action=&;%+4gx "
	check := func(raw string) bool {
		for _, key := range []string{"Action", "x", ""} {
			if got, want := queryValue(raw, key), (&url.URL{RawQuery: raw}).Query().Get(key); got != want {
				t.Logf("query %q key %q: queryValue %q, URL.Query %q", raw, key, got, want)
				return false
			}
		}
		return true
	}
	for _, raw := range []string{
		"", "Action=DescribeVpcs", "x=1&Action=CreateVpc&Action=Second", "Action=&Action=Late", "Action", "=v",
		"Action=Describe%56pcs", "A%63tion=Escaped+Key", "Action=%zz&Action=AfterBadEscape", "Action=a;b&Action=AfterSemicolon",
		"&&Action=x&&", "Action=a=b", "action=lowercase",
	} {
		if !check(raw) {
			t.Errorf("pinned query %q disagrees", raw)
		}
	}
	f := func(picks []byte) bool {
		raw := make([]byte, len(picks))
		for i, p := range picks {
			raw[i] = alphabet[int(p)%len(alphabet)]
		}
		return check(string(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestResetRequestID: a reset mints exactly one request ID and answers
// with it, so a headerless reset and the call after it get the IDs a
// fresh server hands its first two calls. (TestRouterByteParity checks
// that a client-tagged ID is echoed, directly and routed.)
func TestResetRequestID(t *testing.T) {
	post := func(h http.Handler, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
		return rec.Header().Get(RequestIDHeader)
	}
	reset, describe := "/v2/ec2/reset", "/v2/ec2?Action=DescribeVpcs"
	ref := New(ec2.New())
	want := []string{post(ref, describe), post(ref, describe)}

	h := New(ec2.New())
	if got := post(h, reset); got != want[0] {
		t.Errorf("headerless reset answered request ID %q, want the first derived ID %q", got, want[0])
	}
	if got := post(h, describe); got != want[1] {
		t.Errorf("the call after a reset got request ID %q, want the second derived ID %q", got, want[1])
	}
}
