package eval

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/tenant"
)

// PhaseStat is one phase's latency distribution over a scenario run,
// read back from the lce_phase_seconds histograms the spine recorded.
type PhaseStat struct {
	Phase string
	Count int64
	P50   time.Duration
	P99   time.Duration
	Mean  time.Duration
	// Sum is the phase's total self time in seconds (the histogram
	// sum) — the numerator of the scenario's coverage ratio.
	Sum float64
}

// PhaseScenario is one -phases benchmark cell: a request mix driven
// through the fully instrumented HTTP stack, with the per-phase
// distributions, the end-to-end request distribution, and the
// coverage ratio between them.
type PhaseScenario struct {
	Name     string
	Requests int
	Phases   []PhaseStat

	// E2E is the lce_http_request_seconds{route=v2.invoke}
	// distribution over the same run.
	E2ECount int64
	E2EP50   time.Duration
	E2EP99   time.Duration
	E2EMean  time.Duration
	E2ESum   float64

	// Coverage is Σ(phase sums) / e2e sum. The timing spine records
	// end-to-end latency as the sum of phase self-times, so any
	// drift from 1.0 means a layer leaked an open region or
	// double-counted — the integrity invariant the bench gates on.
	Coverage float64

	// AllocsPerReq is the heap allocation count per request across
	// the measured window (runtime.MemStats deltas).
	AllocsPerReq float64
}

// PhaseBench runs the latency-attribution scenarios: "hot" (the
// compiled learned EC2 emulator behind the tenant pool — the paper's
// fast path) and "durable" (a capacity-2 pool over a FsyncAlways
// journal with four sessions rotating, so every touch pays
// session.lookup → rehydrate and journal.append → fsync). dir is
// scratch space for the durable scenario's store.
func PhaseBench(dir string, requests int) ([]PhaseScenario, error) {
	hot, err := phaseHotScenario(requests)
	if err != nil {
		return nil, fmt.Errorf("phases (hot): %w", err)
	}
	dur, err := phaseDurableScenario(dir, requests)
	if err != nil {
		return nil, fmt.Errorf("phases (durable): %w", err)
	}
	return []PhaseScenario{hot, dur}, nil
}

func phaseHotScenario(requests int) (PhaseScenario, error) {
	svc, err := speedupSpec("ec2")
	if err != nil {
		return PhaseScenario{}, err
	}
	emu, err := interp.New(svc)
	if err != nil {
		return PhaseScenario{}, err
	}
	pool, err := tenant.New(func() cloudapi.Backend { return emu }, tenant.Config{})
	if err != nil {
		return PhaseScenario{}, err
	}
	ob := obsv.New(1, 0)
	srv := httptest.NewServer(httpapi.New(emu, httpapi.WithObs(ob), httpapi.WithPool(pool)))
	defer srv.Close()

	post := func() error {
		return phasePost(srv.Client(), srv.URL+"/v2/ec2?Action=DescribeVpcs", "", "")
	}
	// One create so the describes have a world to walk.
	if err := phasePost(srv.Client(), srv.URL+"/v2/ec2?Action=CreateVpc",
		`{"params":{"cidrBlock":"10.0.0.0/16"}}`, ""); err != nil {
		return PhaseScenario{}, err
	}
	return phaseDrive("hot", "ec2", ob, requests, post)
}

func phaseDurableScenario(dir string, requests int) (PhaseScenario, error) {
	store, err := durable.Open(durable.Config{Dir: dir, Fsync: durable.FsyncAlways})
	if err != nil {
		return PhaseScenario{}, err
	}
	probe, err := durableEmulator()
	if err != nil {
		return PhaseScenario{}, err
	}
	service := probe.Service()
	// Capacity 2 over one shard with four sessions rotating: every
	// touch evicts someone, so the run continuously exercises spill on
	// the way out and session.lookup → rehydrate on the way back in.
	pool, err := tenant.New(cloudapi.FactoryOf(probe), tenant.Config{Shards: 1, Capacity: 2, Spill: store})
	if err != nil {
		return PhaseScenario{}, err
	}
	ob := obsv.New(1, 0)
	srv := httptest.NewServer(httpapi.New(probe, httpapi.WithObs(ob), httpapi.WithPool(pool)))
	defer srv.Close()

	url := srv.URL + "/v2/" + service + "?Action=CreatePublicIp"
	body := `{"params":{"region":"us-east"}}`
	i := 0
	post := func() error {
		i++
		return phasePost(srv.Client(), url, body, fmt.Sprintf("phase-%d", i%4))
	}
	return phaseDrive("durable", service, ob, requests, post)
}

// phaseDrive warms the route, runs the measured window, and reads the
// scenario's distributions back out of the registry.
func phaseDrive(name, service string, ob *obsv.Obs, requests int, post func() error) (PhaseScenario, error) {
	// Warm-up outside the alloc window (route, connection, first
	// session). The registry sees these requests too — symmetrically
	// on the phase and e2e sides, so the coverage ratio is unaffected.
	if err := post(); err != nil {
		return PhaseScenario{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if err := post(); err != nil {
			return PhaseScenario{}, err
		}
	}
	runtime.ReadMemStats(&after)

	sc := PhaseScenario{
		Name:         name,
		Requests:     requests,
		AllocsPerReq: float64(after.Mallocs-before.Mallocs) / float64(max(requests, 1)),
	}
	reg := ob.Registry
	for _, phase := range obsv.PhaseNames {
		h := reg.Histogram(obsv.MetricPhaseSeconds, "phase", phase, "service", service)
		if h.Count() == 0 {
			continue
		}
		sc.Phases = append(sc.Phases, PhaseStat{
			Phase: phase,
			Count: h.Count(),
			P50:   h.QuantileDuration(0.5),
			P99:   h.QuantileDuration(0.99),
			Mean:  time.Duration(h.Sum() / float64(h.Count()) * float64(time.Second)),
			Sum:   h.Sum(),
		})
	}
	e2e := reg.Histogram(obsv.MetricHTTPSeconds, "route", "v2.invoke")
	sc.E2ECount = e2e.Count()
	sc.E2EP50 = e2e.QuantileDuration(0.5)
	sc.E2EP99 = e2e.QuantileDuration(0.99)
	sc.E2ESum = e2e.Sum()
	if sc.E2ECount > 0 {
		sc.E2EMean = time.Duration(sc.E2ESum / float64(sc.E2ECount) * float64(time.Second))
	}
	var phaseSum float64
	for _, ps := range sc.Phases {
		phaseSum += ps.Sum
	}
	if sc.E2ESum > 0 {
		sc.Coverage = phaseSum / sc.E2ESum
	}
	return sc, nil
}

func phasePost(c *http.Client, url, body, session string) error {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if session != "" {
		req.Header.Set(httpapi.SessionHeader, session)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// FormatPhases renders the latency-attribution tables.
func FormatPhases(scs []PhaseScenario) string {
	var b strings.Builder
	for _, sc := range scs {
		fmt.Fprintf(&b, "Phase attribution — %s (%d requests; coverage %.3f, %.0f allocs/req)\n",
			sc.Name, sc.Requests, sc.Coverage, sc.AllocsPerReq)
		fmt.Fprintf(&b, "  %-16s %8s %12s %12s %12s %7s\n", "phase", "count", "p50", "p99", "mean", "share")
		for _, ps := range sc.Phases {
			share := 0.0
			if sc.E2ESum > 0 {
				share = 100 * ps.Sum / sc.E2ESum
			}
			fmt.Fprintf(&b, "  %-16s %8d %12s %12s %12s %6.1f%%\n", ps.Phase, ps.Count,
				ps.P50.Round(time.Nanosecond), ps.P99.Round(time.Nanosecond),
				ps.Mean.Round(time.Nanosecond), share)
		}
		fmt.Fprintf(&b, "  %-16s %8d %12s %12s %12s %6.0f%%\n", "end-to-end", sc.E2ECount,
			sc.E2EP50.Round(time.Nanosecond), sc.E2EP99.Round(time.Nanosecond),
			sc.E2EMean.Round(time.Nanosecond), 100.0)
		b.WriteString("\n")
	}
	return b.String()
}
