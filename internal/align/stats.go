package align

import (
	"fmt"

	"lce/internal/obsv"
	"lce/internal/retry"
)

// Stats is a run's counts. Everything but the retry tallies is read
// off the run's rounds, so the counts never disagree with them and are
// deterministic for a given workload at any worker count.
type Stats struct {
	// TracesCompared counts differential trace comparisons across all
	// rounds (each trace is re-compared every round).
	TracesCompared int64
	// Divergent counts comparisons that found at least one step diff.
	Divergent int64
	// Repairs counts spec repairs applied across all rounds.
	Repairs int64
	// Rounds counts recorded alignment rounds.
	Rounds int64
	// Retries counts retry attempts the resilient oracle client made
	// against transient faults.
	Retries int64
	// TransientFaults counts transient infrastructure faults observed
	// from the oracle (each is either retried or, on exhaustion,
	// surfaced as an exhausted-transient divergence).
	TransientFaults int64
	// OracleReplays counts trace replays against the oracle, and
	// OracleMemoHits the comparisons that diffed against a memoized
	// earlier replay instead: OracleReplays + OracleMemoHits ==
	// TracesCompared.
	OracleReplays  int64
	OracleMemoHits int64
}

// statsOf sums rounds into a run's Stats and adds the retry tallies,
// the only counts kept as they happen.
func statsOf(rounds []Round, tally *retry.Tally) Stats {
	s := Stats{
		Rounds:          int64(len(rounds)),
		Retries:         tally.Retries(),
		TransientFaults: tally.TransientFaults(),
	}
	for _, r := range rounds {
		s.TracesCompared += int64(r.Total)
		s.Divergent += int64(len(r.Divergence))
		s.Repairs += int64(len(r.Repairs))
		s.OracleReplays += int64(r.OracleReplays)
		s.OracleMemoHits += int64(r.OracleMemoHits)
	}
	return s
}

// PublishTo adds one run's counts to the lce_align_* counters of r, so
// runs sharing a registry sum. Publish each run once; a nil registry
// is a no-op. Divergent has no counter here: the run counted each
// divergence as it found it, by cause, in lce_align_divergences_total,
// whose sum over causes it equals.
func (s Stats) PublishTo(r *obsv.Registry) {
	if r == nil {
		return
	}
	r.Counter("lce_align_comparisons_total").Add(s.TracesCompared)
	r.Counter("lce_align_repairs_total").Add(s.Repairs)
	r.Counter("lce_align_rounds_total").Add(s.Rounds)
	r.Counter("lce_align_retries_total").Add(s.Retries)
	r.Counter("lce_align_transient_faults_total").Add(s.TransientFaults)
	r.Counter("lce_align_oracle_replays_total").Add(s.OracleReplays)
	r.Counter("lce_align_oracle_memo_hits_total").Add(s.OracleMemoHits)
}

// String renders a one-line summary, e.g.
// "120 comparisons (3 divergent), 2 repairs over 4 rounds, 17 retries
// on 19 transient faults, 60 oracle replays (60 memo hits)".
func (s Stats) String() string {
	return fmt.Sprintf("%d comparisons (%d divergent), %d repairs over %d rounds, %d retries on %d transient faults, %d oracle replays (%d memo hits)",
		s.TracesCompared, s.Divergent, s.Repairs, s.Rounds, s.Retries, s.TransientFaults, s.OracleReplays, s.OracleMemoHits)
}
