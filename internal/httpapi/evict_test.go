package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/interp"
	"lce/internal/spec"
	"lce/internal/tenant"
)

const evictSpec = `
service vpcs {
  sm Vpc {
    idprefix "vpc"
    notfound "InvalidVpcID.NotFound"
    states { cidrBlock: str }
    transition CreateVpc(cidrBlock: str) create {
      write(cidrBlock, cidrBlock)
      return(vpcId, id(self))
    }
    transition DescribeVpcs() describe {
      return(vpcs, describeAll("Vpc"))
    }
  }
}
`

// racingTier decorates the durable store the way the benchmark's
// traced stack does — the journaled backend Adopt returns is wrapped
// in a decorator that exposes Inner() — and uses the decorator to lose
// the eviction race on purpose: before runs after the handler has
// resolved the session and before the call reaches the journaled
// wrapper.
type racingTier struct {
	*durable.Store
	before func(session string)
}

type racingBackend struct {
	cloudapi.Backend
	session string
	tier    *racingTier
}

func (b *racingBackend) Inner() cloudapi.Backend { return b.Backend }

func (b *racingBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	b.tier.before(b.session)
	return b.Backend.Invoke(req)
}

func (t *racingTier) Adopt(ctx context.Context, session string, b cloudapi.Backend) (cloudapi.Backend, bool) {
	wrapped, ok := t.Store.Adopt(ctx, session, b)
	if !ok {
		return wrapped, false
	}
	return &racingBackend{Backend: wrapped, session: session, tier: t}, true
}

func (t *racingTier) Spill(session string, b cloudapi.Backend) (int64, error) {
	if rb, ok := b.(*racingBackend); ok {
		b = rb.Backend
	}
	return t.Store.Spill(session, b)
}

// TestCallRacingItsSessionsEviction: a /v2 call whose session is
// evicted between the handler's lookup and the call must not be
// answered 2xx from the orphaned world. Losing the race once, the
// handler resolves the session again (rehydrating it) and the call
// takes effect there; losing it twice answers the transient
// ServiceUnavailable envelope, and the refused call leaves no trace.
func TestCallRacingItsSessionsEviction(t *testing.T) {
	svc, err := spec.Parse(evictSpec)
	if err != nil {
		t.Fatal(err)
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(durable.Config{Dir: t.TempDir(), Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var pool *tenant.Pool
	races := 0
	tier := &racingTier{Store: store, before: func(session string) {
		if session == "a" && races > 0 {
			races--
			if _, err := pool.Get("b"); err != nil { // capacity 1: evicts and spills a
				t.Error(err)
			}
		}
	}}
	pool, err = tenant.New(cloudapi.FactoryOf(emu), tenant.Config{Shards: 1, Capacity: 1, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(emu, WithPool(pool)))
	defer srv.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(SessionHeader, "a")
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	const create = `{"params":{"cidrBlock":"10.0.0.0/16"}}`
	vpcs := func() int {
		t.Helper()
		code, body := post("/v2/vpcs?Action=DescribeVpcs", "")
		if code != http.StatusOK {
			t.Fatalf("DescribeVpcs: %d %s", code, body)
		}
		return strings.Count(body, `"id":"vpc-`)
	}

	races = 1
	if code, body := post("/v2/vpcs?Action=CreateVpc", create); code != http.StatusOK || !strings.Contains(body, "vpc-00000001") {
		t.Fatalf("call that lost the race once: %d %s", code, body)
	}
	if n := vpcs(); n != 1 {
		t.Fatalf("acknowledged create is not in the session a later call rehydrates: %d VPCs", n)
	}

	races = 2
	code, body := post("/v2/vpcs?Action=CreateVpc", create)
	var envelope struct {
		IsError bool   `json:"__error"`
		Code    string `json:"Code"`
	}
	if err := json.Unmarshal([]byte(body), &envelope); err != nil {
		t.Fatalf("response %d %q: %v", code, body, err)
	}
	if code != http.StatusServiceUnavailable || !envelope.IsError || !cloudapi.IsTransientCode(envelope.Code) {
		t.Fatalf("call that lost the race twice: %d %s, want the transient 503 envelope", code, body)
	}
	if n := vpcs(); n != 1 {
		t.Fatalf("refused call left its effect behind: %d VPCs", n)
	}

	// A batch keeps going on the backend that answered the retry.
	races = 1
	code, body = post("/v2/vpcs/batch", `{"requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.1.0.0/16"}},{"action":"CreateVpc","params":{"cidrBlock":"10.2.0.0/16"}}]}`)
	if code != http.StatusOK || !strings.Contains(body, `"succeeded":2`) {
		t.Fatalf("batch that lost the race once: %d %s", code, body)
	}
	if n := vpcs(); n != 3 {
		t.Fatalf("after the batch: %d VPCs, want 3", n)
	}
}
