package obsv

import (
	"context"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func newPhaseTimer(clock Clock) *PhaseTimer {
	pt := new(PhaseTimer)
	pt.Reset(clock)
	return pt
}

func serverTiming(pt *PhaseTimer) string { return string(pt.Times().AppendServerTiming(nil)) }

func TestPhaseSelfTimeNesting(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := newPhaseTimer(clk)

	outer := pt.Start(PhaseOther)
	clk.Advance(10 * time.Millisecond)
	jr := pt.Start(PhaseJournalAppend)
	clk.Advance(5 * time.Millisecond)
	fs := pt.Start(PhaseFsync)
	clk.Advance(2 * time.Millisecond)
	fs.End()
	jr.End()
	clk.Advance(3 * time.Millisecond)
	outer.End()

	want := map[string]int64{
		PhaseFsync:         (2 * time.Millisecond).Nanoseconds(),
		PhaseJournalAppend: (5 * time.Millisecond).Nanoseconds(),
		PhaseOther:         (13 * time.Millisecond).Nanoseconds(),
	}
	if got := pt.Times().Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Map() = %v, want %v", got, want)
	}
	if got, want := pt.Times().Total(), 20*time.Millisecond; got != want {
		t.Fatalf("Total() = %v, want %v (the outer region's wall time)", got, want)
	}
}

func TestPhaseSameNameNesting(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := newPhaseTimer(clk)

	outer := pt.Start(PhaseDecode)
	clk.Advance(4 * time.Millisecond)
	inner := pt.Start(PhaseDecode)
	clk.Advance(1 * time.Millisecond)
	inner.End()
	outer.End()

	// inner self = 1ms, outer self = 5ms - 1ms child = 4ms; total 5ms,
	// no double count.
	if got, want := pt.Times().Total(), 5*time.Millisecond; got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
	if count := pt.Times().Count[phaseIndex(PhaseDecode)]; count != 2 {
		t.Fatalf("decode count = %d, want 2", count)
	}
}

func TestPhaseTimerNilSafe(t *testing.T) {
	var pt *PhaseTimer
	r := pt.Start(PhaseDecode)
	r.End()
	if got := pt.Times().Total(); got != 0 {
		t.Fatalf("nil Total() = %v", got)
	}
	if got := pt.Times().Map(); got != nil {
		t.Fatalf("nil Map() = %v", got)
	}
	if got := serverTiming(pt); got != "" {
		t.Fatalf("nil ServerTiming() = %q", got)
	}
	if got := pt.Times(); got != (PhaseTimes{}) {
		t.Fatalf("nil Times() = %+v", got)
	}

	ctx := context.Background()
	if got := PhasesFrom(&Scope{Context: ctx}); got != nil {
		t.Fatalf("PhasesFrom(scope without a timer) = %v", got)
	}
	if got := PhasesFrom(nil); got != nil {
		t.Fatalf("PhasesFrom(nil) = %v", got)
	}
	if got := PhasesFrom(ctx); got != nil {
		t.Fatalf("PhasesFrom(plain ctx) = %v", got)
	}
}

func TestPhaseContextRoundTrip(t *testing.T) {
	pt := newPhaseTimer(nil)
	var ctx context.Context = &Scope{Context: context.Background(), Phases: pt}
	if got := PhasesFrom(ctx); got != pt {
		t.Fatalf("PhasesFrom = %p, want %p", got, pt)
	}
}

func TestPhaseUnknownAndOverflow(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := newPhaseTimer(clk)

	r := pt.Start("no-such-phase")
	clk.Advance(time.Millisecond)
	r.End()
	if got := pt.Times().Total(); got != 0 {
		t.Fatalf("unknown phase recorded %v", got)
	}

	regions := make([]PhaseRegion, 0, maxPhaseDepth+2)
	for i := 0; i < maxPhaseDepth+2; i++ {
		regions = append(regions, pt.Start(PhaseOther))
		clk.Advance(time.Millisecond)
	}
	for i := len(regions) - 1; i >= 0; i-- {
		regions[i].End()
	}
	// The two over-deep regions were dropped; the rest still tile
	// their outermost window.
	if got, want := pt.Times().Total(), time.Duration(maxPhaseDepth+2)*time.Millisecond; got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
}

// TestPhaseTimerReset: a timer recycled with its owner's pooled state
// must read as fresh, even when the previous request left a region open.
func TestPhaseTimerReset(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := newPhaseTimer(clk)
	r := pt.Start(PhaseEncode)
	clk.Advance(time.Millisecond)
	r.End()
	pt.Start(PhaseOther)

	pt.Reset(clk)
	if got := pt.Times().Total(); got != 0 {
		t.Fatalf("timer not reset: Total() = %v", got)
	}
	if got := pt.Times().Map(); got != nil {
		t.Fatalf("timer not reset: Map() = %v", got)
	}
	d := pt.Start(PhaseDecode)
	clk.Advance(time.Millisecond)
	d.End()
	if got, want := pt.Times().Total(), time.Millisecond; got != want {
		t.Fatalf("after reset Total() = %v, want %v (a stale open frame leaked in)", got, want)
	}
}

func TestServerTimingFormat(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := newPhaseTimer(clk)

	d := pt.Start(PhaseDecode)
	clk.Advance(1500 * time.Microsecond)
	d.End()
	e := pt.Start(PhaseEncode)
	clk.Advance(250 * time.Microsecond)
	e.End()

	const want = "decode;dur=1.500, encode;dur=0.250"
	if got := serverTiming(pt); got != want {
		t.Fatalf("ServerTiming() = %q, want %q", got, want)
	}
	// The header round-trips through the parser the router reads it
	// with, to the microsecond the format carries.
	back := parseServerTiming(serverTiming(pt))
	if len(back) != 2 || back[PhaseDecode] != 1500*time.Microsecond || back[PhaseEncode] != 250*time.Microsecond {
		t.Fatalf("EachServerTiming(%q) yields %v", want, back)
	}
}

// parseServerTiming collects EachServerTiming's entries by name.
func parseServerTiming(v string) map[string]time.Duration {
	out := map[string]time.Duration{}
	EachServerTiming(v, func(name string, d time.Duration) { out[name] = d })
	return out
}

// TestServerTimingMatchesFloatRendering: the integer rendering is the
// millisecond value to three decimals, exactly what formatting the
// float with 'f', 3 gives — ties at the half microsecond aside, which
// the integer path rounds up and a binary float rounds either way.
func TestServerTimingMatchesFloatRendering(t *testing.T) {
	render := func(self time.Duration) string {
		var pt PhaseTimes
		pt.Self[phaseIndex(PhaseFsync)], pt.Count[phaseIndex(PhaseFsync)] = self, 1
		return string(pt.AppendServerTiming(nil))
	}
	for self, want := range map[time.Duration]string{
		0: "0.000", 499: "0.000", 500: "0.001", 501: "0.001", 1499: "0.001", 1500: "0.002", 999_500: "1.000",
		41 * time.Microsecond: "0.041", 12*time.Second + 345678*time.Microsecond + 499: "12345.678",
	} {
		if got := render(self); got != "fsync;dur="+want {
			t.Errorf("%dns renders %q, want dur=%s", self, got, want)
		}
	}
	f := func(ns uint32, big bool) bool {
		self := time.Duration(ns)
		if big {
			self *= 1000 // up to ~70 minutes
		}
		if self%1000 == 500 {
			return true
		}
		want := "fsync;dur=" + strconv.FormatFloat(float64(self)/float64(time.Millisecond), 'f', 3, 64)
		if got := render(self); got != want {
			t.Logf("%dns: %q, float rendering %q", self, got, want)
			return false
		}
		return parseServerTiming(want)[PhaseFsync].Round(time.Microsecond) == self.Round(time.Microsecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestValidatePhases(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	span := func(attrs map[string]string) SpanData {
		return SpanData{
			TraceID: "t", SpanID: "s", Name: "http.v2.invoke",
			Start: base, End: base.Add(10 * time.Millisecond),
			Attrs: attrs,
		}
	}

	ok := span(map[string]string{
		SpanAttrPhasePfx + PhaseDecode: "1000000",
		SpanAttrPhasePfx + PhaseOther:  "9000000",
		"status":                       "200",
	})
	if err := ValidatePhases([]SpanData{ok}); err != nil {
		t.Fatalf("valid span rejected: %v", err)
	}

	cases := []struct {
		name  string
		attrs map[string]string
	}{
		{"unknown phase", map[string]string{SpanAttrPhasePfx + "warp": "1"}},
		{"non-integer", map[string]string{SpanAttrPhasePfx + PhaseDecode: "fast"}},
		{"negative", map[string]string{SpanAttrPhasePfx + PhaseDecode: "-5"}},
		{"sum exceeds duration", map[string]string{
			SpanAttrPhasePfx + PhaseDecode: "9000000",
			SpanAttrPhasePfx + PhaseEncode: "2000000",
		}},
	}
	for _, tc := range cases {
		if err := ValidatePhases([]SpanData{span(tc.attrs)}); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}
