package metrics

import (
	"fmt"
	"sync/atomic"

	"lce/internal/obsv"
)

// AlignCounters aggregates per-run alignment statistics. The parallel
// alignment engine's worker goroutines bump TracesCompared/Divergent
// concurrently — and, when the oracle is wrapped in a retry layer,
// Retries/TransientFaults too — so the counters are atomic; the
// repair phase (which is single-goroutine) bumps Rounds/Repairs
// through the same interface for uniformity. A zero AlignCounters is
// ready to use. It implements retry.Observer.
type AlignCounters struct {
	tracesCompared  atomic.Int64
	divergent       atomic.Int64
	repairs         atomic.Int64
	rounds          atomic.Int64
	retries         atomic.Int64
	transientFaults atomic.Int64
	oracleReplays   atomic.Int64
	oracleMemoHits  atomic.Int64
}

// TraceCompared records one differential trace comparison and whether
// it diverged. Safe for concurrent use.
func (c *AlignCounters) TraceCompared(diverged bool) {
	c.tracesCompared.Add(1)
	if diverged {
		c.divergent.Add(1)
	}
}

// OracleReplayed records one replay of a trace against the oracle.
// Safe for concurrent use.
func (c *AlignCounters) OracleReplayed() { c.oracleReplays.Add(1) }

// OracleMemoHit records one comparison served from the run's memo of
// earlier oracle replays instead of a new one. Safe for concurrent use.
func (c *AlignCounters) OracleMemoHit() { c.oracleMemoHits.Add(1) }

// RepairsApplied records n repairs applied in the current round.
func (c *AlignCounters) RepairsApplied(n int) { c.repairs.Add(int64(n)) }

// RoundFinished records one completed alignment round.
func (c *AlignCounters) RoundFinished() { c.rounds.Add(1) }

// RecordRetry records one retry attempt against a flaky oracle
// (retry.Observer). Safe for concurrent use.
func (c *AlignCounters) RecordRetry() { c.retries.Add(1) }

// RecordTransientFault records one transient infrastructure fault
// observed from the oracle, retried or not (retry.Observer). Safe for
// concurrent use.
func (c *AlignCounters) RecordTransientFault() { c.transientFaults.Add(1) }

// Snapshot returns the current totals as a plain value. Comparison
// totals are deterministic for a given workload regardless of worker
// count or interleaving: every comparison is counted exactly once.
// (Retries/TransientFaults depend on the chaos seed in play, not on
// worker count per se, but vary with the fault stream.)
func (c *AlignCounters) Snapshot() AlignStats {
	return AlignStats{
		TracesCompared:  c.tracesCompared.Load(),
		Divergent:       c.divergent.Load(),
		Repairs:         c.repairs.Load(),
		Rounds:          c.rounds.Load(),
		Retries:         c.retries.Load(),
		TransientFaults: c.transientFaults.Load(),
		OracleReplays:   c.oracleReplays.Load(),
		OracleMemoHits:  c.oracleMemoHits.Load(),
	}
}

// String renders a one-line summary of the current totals.
func (c *AlignCounters) String() string { return c.Snapshot().String() }

// AlignStats is a point-in-time snapshot of AlignCounters.
type AlignStats struct {
	// TracesCompared counts differential trace comparisons across all
	// rounds (each trace is re-compared every round).
	TracesCompared int64
	// Divergent counts comparisons that found at least one step diff.
	Divergent int64
	// Repairs counts spec repairs applied across all rounds.
	Repairs int64
	// Rounds counts completed alignment rounds.
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
	// TracesCompared. Deterministic whenever retries absorb every fault.
	OracleReplays  int64
	OracleMemoHits int64
}

// PublishTo mirrors the snapshot into an obsv.Registry as monotonic
// lce_align_* counters, bridging the run-scoped counters into the
// Prometheus-exposed registry. Counters only go up, so publishing a
// snapshot adds the delta since the last publish would — callers
// publish once per run (a nil registry is a no-op).
func (s AlignStats) PublishTo(r *obsv.Registry) {
	if r == nil {
		return
	}
	set := func(name string, v int64) {
		c := r.Counter(name)
		if d := v - c.Value(); d > 0 {
			c.Add(d)
		}
	}
	set("lce_align_comparisons_total", s.TracesCompared)
	set("lce_align_divergent_total", s.Divergent)
	set("lce_align_repairs_total", s.Repairs)
	set("lce_align_rounds_total", s.Rounds)
	set("lce_align_retries_total", s.Retries)
	set("lce_align_transient_faults_total", s.TransientFaults)
	set("lce_align_oracle_replays_total", s.OracleReplays)
	set("lce_align_oracle_memo_hits_total", s.OracleMemoHits)
}

// String renders a one-line summary, e.g.
// "120 comparisons (3 divergent), 2 repairs over 4 rounds, 17 retries
// on 19 transient faults, 60 oracle replays (60 memo hits)".
func (s AlignStats) String() string {
	return fmt.Sprintf("%d comparisons (%d divergent), %d repairs over %d rounds, %d retries on %d transient faults, %d oracle replays (%d memo hits)",
		s.TracesCompared, s.Divergent, s.Repairs, s.Rounds, s.Retries, s.TransientFaults, s.OracleReplays, s.OracleMemoHits)
}
