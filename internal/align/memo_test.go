package align_test

import (
	"testing"

	"lce/internal/align"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/docs/corpus"
	"lce/internal/fault"
	"lce/internal/obsv"
	"lce/internal/scenarios"
	"lce/internal/synth"
)

// TestAlignLoopOracleBudget pins what the oracle memo saves on the
// default four-service loop: 342 comparisons, of which only the 169
// round-1 replays reach the oracle. A count, not a timing, so the memo
// cannot silently switch off.
func TestAlignLoopOracleBudget(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var compared, replays, hits int64
		for _, service := range goldenServices {
			res := alignCase(t, service, workers, false)
			compared += res.Stats.TracesCompared
			replays += res.Stats.OracleReplays
			hits += res.Stats.OracleMemoHits
			for _, r := range res.Rounds {
				if r.OracleReplays+r.OracleMemoHits != r.Total {
					t.Errorf("%s @%dw round %d: %d replays + %d memo hits != %d traces",
						service, workers, r.Round, r.OracleReplays, r.OracleMemoHits, r.Total)
				}
				if r.Round == 1 && r.OracleMemoHits != 0 {
					t.Errorf("%s @%dw: round 1 served %d comparisons from an empty memo", service, workers, r.OracleMemoHits)
				}
			}
		}
		if compared != 342 || replays != 169 || hits != 173 {
			t.Errorf("@%dw: %d comparisons, %d oracle replays, %d memo hits; want 342, 169, 173",
				workers, compared, replays, hits)
		}
	}
}

// TestMemoReplaysExhaustedTransient: under chaos without retries, a
// round-1 oracle replay that ended on a transient code is not memoized
// — round 2 replays exactly those traces against the oracle and serves
// every other one from the memo.
func TestMemoReplaysExhaustedTransient(t *testing.T) {
	brief := corpus.EC2()
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.New(11, 0)
	suite := scenarios.EC2Fig3()
	flaky := fault.Factory(ec2.Factory(), fault.Uniform(0.10, 5))
	res, err := align.RunFactory(svc, brief, flaky, suite, align.Options{Workers: 1, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("loop ran %d round(s); the memo is never consulted", len(res.Rounds))
	}

	spans := obs.Tracer.Snapshot()
	type rootRef struct{ round, index, oracle string }
	roots := map[string]rootRef{}
	for _, sp := range spans {
		if sp.Root() && sp.Name == obsv.SpanAlignTrace {
			roots[sp.TraceID] = rootRef{sp.Attrs["round"], sp.Attrs["index"], sp.Attrs["oracle"]}
		}
	}
	// The round-1 traces whose oracle replay saw an unretried fault.
	faulted := map[string]bool{}
	for _, sp := range spans {
		if r := roots[sp.TraceID]; r.round == "1" && sp.Attrs["role"] == "oracle" && cloudapi.IsTransientCode(sp.Error) {
			faulted[r.index] = true
		}
	}
	if len(faulted) == 0 {
		t.Fatal("no round-1 oracle replay ended on a transient code — the test is vacuous")
	}
	var replayed, served int
	for _, r := range roots {
		if r.round != "2" {
			continue
		}
		want := "memo"
		if faulted[r.index] {
			want = "replayed"
			replayed++
		} else {
			served++
		}
		if r.oracle != want {
			t.Errorf("round 2 trace %s: oracle=%s, want %s (faulted in round 1: %v)", r.index, r.oracle, want, faulted[r.index])
		}
	}
	r2 := res.Rounds[1]
	if replayed != len(faulted) || r2.OracleReplays != replayed || r2.OracleMemoHits != served || served+replayed != len(suite) {
		t.Errorf("round 2: %d replayed, %d served (round counts %d / %d) for %d faulted of %d traces",
			replayed, served, r2.OracleReplays, r2.OracleMemoHits, len(faulted), len(suite))
	}
}

// BenchmarkAlignLoop is one op of the learn-align workload: the default
// loop for each learnable service in turn, serially. Next to time and
// allocations it reports the oracle replays one op makes.
func BenchmarkAlignLoop(b *testing.B) {
	b.ReportAllocs()
	var replays int64
	for i := 0; i < b.N; i++ {
		for _, service := range goldenServices {
			replays += alignCase(b, service, 1, false).Stats.OracleReplays
		}
	}
	b.ReportMetric(float64(replays)/float64(b.N), "oracle-replays/op")
}
