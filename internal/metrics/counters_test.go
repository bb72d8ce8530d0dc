package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestAlignCountersConcurrent(t *testing.T) {
	var c AlignCounters
	const goroutines = 16
	const perG = 1000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.TraceCompared(i%4 == 0)
				if i%8 == 0 {
					c.RecordTransientFault()
				}
				if i%16 == 0 {
					c.RecordRetry()
				}
				if i%2 == 0 {
					c.OracleReplayed()
				} else {
					c.OracleMemoHit()
				}
			}
		}(g)
	}
	wg.Wait()
	c.RepairsApplied(3)
	c.RoundFinished()

	got := c.Snapshot()
	want := AlignStats{
		TracesCompared:  goroutines * perG,
		Divergent:       goroutines * perG / 4,
		Repairs:         3,
		Rounds:          1,
		Retries:         goroutines * ((perG + 15) / 16),
		TransientFaults: goroutines * ((perG + 7) / 8),
		OracleReplays:   goroutines * perG / 2,
		OracleMemoHits:  goroutines * perG / 2,
	}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestAlignStatsString(t *testing.T) {
	var c AlignCounters
	c.TraceCompared(true)
	c.TraceCompared(false)
	c.RecordTransientFault()
	c.RecordRetry()
	c.RepairsApplied(1)
	c.RoundFinished()
	c.OracleReplayed()
	c.OracleMemoHit()
	s := c.String()
	for _, want := range []string{"2 comparisons", "1 divergent", "1 repairs", "1 rounds", "1 retries", "1 transient faults", "1 oracle replays", "1 memo hits"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if c.Snapshot().String() != s {
		t.Error("counter and snapshot summaries disagree")
	}
}
