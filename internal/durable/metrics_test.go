package durable

import (
	"strconv"
	"testing"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// TestDurableMetricsSpillRehydrateCycles drives sessions through
// repeated spill → rehydrate round trips and checks the lce_durable_*
// registry series: every counter is monotone across cycles, rises when
// its operation happens, and the sessions gauge tracks the known set —
// returning to zero once every session is forgotten.
func TestDurableMetricsSpillRehydrateCycles(t *testing.T) {
	reg := obsv.NewRegistry()
	s, _ := openTest(t, t.TempDir(), func(c *Config) {
		c.Fsync = FsyncAlways
		c.Registry = reg
	})
	spills := reg.Counter(obsv.MetricDurableSpills)
	spillB := reg.Counter(obsv.MetricDurableSpillBytes)
	rehydr := reg.Counter(obsv.MetricDurableRehydrations)
	records := reg.Counter(obsv.MetricDurableJournalRecords)
	gauge := reg.Gauge(obsv.MetricDurableSessions)

	sessions := []string{"alice", "bob"}
	live := map[string]cloudapi.Backend{}
	for _, id := range sessions {
		b, _ := adoptEmu(t, s, id)
		toyCall(b, 0)
		toyCall(b, 1)
		live[id] = b
	}
	if g := gauge.Value(); g != int64(len(sessions)) {
		t.Fatalf("sessions gauge = %d after adopting %d sessions", g, len(sessions))
	}
	if records.Value() == 0 {
		t.Fatal("journal records counter flat after journaled calls")
	}

	prevSpills, prevSpillB, prevRehydr, prevRecords := spills.Value(), spillB.Value(), rehydr.Value(), records.Value()
	for cycle := 1; cycle <= 3; cycle++ {
		// Spill every session to disk, then adopt a fresh backend for
		// it — the disk side must rehydrate each one.
		for _, id := range sessions {
			if _, err := s.Spill(id, live[id]); err != nil {
				t.Fatalf("cycle %d: Spill(%s): %v", cycle, id, err)
			}
		}
		for _, id := range sessions {
			b, _ := adoptEmu(t, s, id)
			toyCall(b, cycle)
			live[id] = b
		}

		if v := spills.Value(); v != prevSpills+int64(len(sessions)) {
			t.Errorf("cycle %d: spills = %d, want %d", cycle, v, prevSpills+int64(len(sessions)))
		}
		if v := rehydr.Value(); v != prevRehydr+int64(len(sessions)) {
			t.Errorf("cycle %d: rehydrations = %d, want %d", cycle, v, prevRehydr+int64(len(sessions)))
		}
		if v := spillB.Value(); v <= prevSpillB {
			t.Errorf("cycle %d: spill bytes %d not monotone past %d", cycle, v, prevSpillB)
		}
		if v := records.Value(); v <= prevRecords {
			t.Errorf("cycle %d: journal records %d not monotone past %d", cycle, v, prevRecords)
		}
		if g := gauge.Value(); g != int64(len(sessions)) {
			t.Errorf("cycle %d: sessions gauge = %d, want %d (spill must not unknow a session)", cycle, g, len(sessions))
		}
		prevSpills, prevSpillB, prevRehydr, prevRecords = spills.Value(), spillB.Value(), rehydr.Value(), records.Value()
	}

	// Forget returns the gauge to zero; counters stay put (monotone).
	for i, id := range sessions {
		s.Forget(id)
		if g := gauge.Value(); g != int64(len(sessions)-i-1) {
			t.Errorf("sessions gauge = %d after forgetting %d of %d", g, i+1, len(sessions))
		}
	}
	if g := gauge.Value(); g != 0 {
		t.Errorf("sessions gauge = %d after forgetting all, want 0", g)
	}
	s.Forget("never-existed") // no-op, must not go negative
	if g := gauge.Value(); g != 0 {
		t.Errorf("sessions gauge = %d after forgetting unknown id, want 0", g)
	}
	if v := spills.Value(); v != prevSpills {
		t.Errorf("spills counter moved on Forget: %d -> %d", prevSpills, v)
	}
}

// steppingClock moves one second per read, so every bracketed journal
// write looks a second long — far past the stall threshold.
type steppingClock struct{ *obsv.FakeClock }

func (c steppingClock) Now() time.Time {
	c.Advance(time.Second)
	return c.FakeClock.Now()
}

// TestStallWatchdogFires: on a clock that moves a second per read,
// every journaled call must emit durable.stall and bump the counter.
func TestStallWatchdogFires(t *testing.T) {
	reg := obsv.NewRegistry()
	s, sink := openTest(t, t.TempDir(), func(c *Config) {
		c.Fsync = FsyncAlways
		c.Registry = reg
		c.Clock = steppingClock{obsv.NewFakeClock(time.Time{})}
	})
	b, _ := adoptEmu(t, s, "alice")
	toyCall(b, 0)

	stalls := reg.Counter(obsv.MetricDurableStalls).Value()
	if stalls == 0 {
		t.Fatal("no stalls counted on a clock that moves a second per read")
	}
	e, ok := sink.last(EventStall)
	if !ok {
		t.Fatal("no durable.stall event emitted")
	}
	if e.session != "alice" {
		t.Errorf("stall event session = %q, want alice", e.session)
	}
	d, err := strconv.ParseInt(e.attrs["durationNs"], 10, 64)
	if err != nil || d <= 0 {
		t.Errorf("stall durationNs = %q, want positive integer", e.attrs["durationNs"])
	}
	if thr := e.attrs["thresholdNs"]; thr != "100000000" {
		t.Errorf("stall thresholdNs = %q, want 100000000", thr)
	}
}

// TestStallWatchdogQuiet: on the injectable fake clock no wall time
// ever passes during an append, so the watchdog never fires.
func TestStallWatchdogQuiet(t *testing.T) {
	t.Run("fake clock, no time passes", func(t *testing.T) {
		reg := obsv.NewRegistry()
		s, sink := openTest(t, t.TempDir(), func(c *Config) {
			c.Fsync = FsyncAlways
			c.Registry = reg
			c.Clock = obsv.NewFakeClock(time.Time{})
		})
		b, _ := adoptEmu(t, s, "alice")
		for i := 0; i < 4; i++ {
			toyCall(b, i)
		}
		if v := reg.Counter(obsv.MetricDurableStalls).Value(); v != 0 {
			t.Errorf("stalls = %d, want 0", v)
		}
		if _, ok := sink.last(EventStall); ok {
			t.Error("durable.stall emitted")
		}
	})
}
