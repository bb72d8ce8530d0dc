package align_test

import (
	"strconv"
	"strings"
	"testing"

	"lce"
	"lce/internal/align"
	"lce/internal/obsv"
)

// alignCounters lists every lce_align_*_total family a run publishes,
// with the Stats field its sum over all series carries. Divergences are
// counted by the run itself, per {service,cause}; the rest are added by
// Stats.PublishTo.
var alignCounters = map[string]func(align.Stats) int64{
	"lce_align_comparisons_total":      func(s align.Stats) int64 { return s.TracesCompared },
	"lce_align_divergences_total":      func(s align.Stats) int64 { return s.Divergent },
	"lce_align_repairs_total":          func(s align.Stats) int64 { return s.Repairs },
	"lce_align_rounds_total":           func(s align.Stats) int64 { return s.Rounds },
	"lce_align_retries_total":          func(s align.Stats) int64 { return s.Retries },
	"lce_align_transient_faults_total": func(s align.Stats) int64 { return s.TransientFaults },
	"lce_align_oracle_replays_total":   func(s align.Stats) int64 { return s.OracleReplays },
	"lce_align_oracle_memo_hits_total": func(s align.Stats) int64 { return s.OracleMemoHits },
}

func TestAlignStatsString(t *testing.T) {
	s := align.Stats{TracesCompared: 2, Divergent: 1, Repairs: 1, Rounds: 1, Retries: 1, TransientFaults: 1, OracleReplays: 1, OracleMemoHits: 1}
	want := "2 comparisons (1 divergent), 1 repairs over 1 rounds, 1 retries on 1 transient faults, 1 oracle replays (1 memo hits)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestErroredRunReportsItsRound: with noise seed 2 the azure-network
// loop compares every trace in round 1, then a redocumentation fails
// the spec checks. The run still returns that round, and its counts —
// in Stats and in the registry — are the round's.
func TestErroredRunReportsItsRound(t *testing.T) {
	opts := lce.DefaultOptions()
	opts.Noise.Seed = 2
	ob := lce.NewObs(1)
	res, err := lce.Align("azure-network", opts, lce.AlignConfig{Workers: 1, Obs: ob})
	if err == nil || !strings.Contains(err.Error(), "repair of") {
		t.Fatalf("err = %v, want a failed repair", err)
	}
	if res == nil || len(res.Rounds) != 1 {
		t.Fatalf("errored run recorded %v rounds, want 1", res)
	}
	r := res.Rounds[0]
	if r.Total == 0 || res.Stats.TracesCompared != int64(r.Total) || res.Stats.Rounds != 1 {
		t.Errorf("stats %s disagree with round %+v", res.Stats, r)
	}
	if got := ob.Registry.Counter("lce_align_comparisons_total").Value(); got != int64(r.Total) {
		t.Errorf("published %d comparisons, the round compared %d", got, r.Total)
	}
}

// TestSharedObsSumsRuns: runs sharing one Obs add their counts, so each
// lce_align_*_total is the sum over the runs' Stats.
func TestSharedObsSumsRuns(t *testing.T) {
	ob := lce.NewObs(1)
	var stats []align.Stats
	for _, service := range []string{"ec2", "dynamodb"} {
		res, err := lce.Align(service, lce.DefaultOptions(), lce.AlignConfig{Workers: 1, Obs: ob})
		if err != nil {
			t.Fatalf("%s: %v", service, err)
		}
		stats = append(stats, res.Stats)
	}
	for name, field := range alignCounters {
		var want int64
		for _, s := range stats {
			want += field(s)
		}
		if got := familySum(t, ob.Registry, name); got != want {
			t.Errorf("%s = %d, want %d (sum over %v)", name, got, want, stats)
		}
	}
	if ob.Registry.Counter("lce_align_comparisons_total").Value() <= stats[0].TracesCompared {
		t.Error("the second run added no comparisons — the test is vacuous")
	}
}

// familySum is sum(name) over the registry's exposition: the total an
// operator reads off a family, whatever its labels.
func familySum(t *testing.T, reg *obsv.Registry, name string) int64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	var sum int64
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, err := strconv.ParseInt(rest[strings.LastIndexByte(rest, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}
