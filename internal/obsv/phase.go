package obsv

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The phase taxonomy: every stage a request crosses on its way through
// httpapi → tenant → durable → interp. Phases are recorded as
// *self time* — a region's duration minus its nested regions — so the
// per-phase durations of one request tile its handler window without
// overlap: fsync time is not double-counted inside journal.append, and
// whatever no layer claimed lands in PhaseOther. That is the invariant
// lce-tracecheck enforces on exported spans (sum of phase.* attrs ≤
// span duration) and the root package's TestPhaseCoverage proves
// against the end-to-end histogram.
const (
	// PhaseDecode is request-body reading and JSON decoding.
	PhaseDecode = "decode"
	// PhaseSessionLookup is tenant-pool session resolution (shard
	// lock, LRU touch, and on a miss the backend factory).
	PhaseSessionLookup = "session.lookup"
	// PhaseRehydrate is the durable tier restoring on-disk state
	// (snapshot decode + journal replay) inside a session-lookup miss.
	PhaseRehydrate = "rehydrate"
	// PhaseSpill is the durable tier persisting a session the lookup
	// evicted to make room (checkpoint append + sync): the victim's
	// cost, paid by whichever request's miss overflowed the pool.
	PhaseSpill = "spill"
	// PhaseDispatch is the learned emulator executing the action.
	PhaseDispatch = "interp.dispatch"
	// PhaseJournalAppend is write-ahead journaling of the call
	// (encode + frame + write), excluding the fsync below.
	PhaseJournalAppend = "journal.append"
	// PhaseFsync is the journal's file sync, under whichever policy.
	PhaseFsync = "fsync"
	// PhaseEncode is response-envelope encoding.
	PhaseEncode = "encode"
	// PhaseOther is the catch-all: handler time no named phase claimed
	// (routing glue, header writes, error paths).
	PhaseOther = "other"
)

// PhaseNames lists the taxonomy in canonical (request-path) order —
// the order Server-Timing headers and bench tables use, and the index
// space of PhaseTimes.
var PhaseNames = [...]string{
	PhaseDecode, PhaseSessionLookup, PhaseRehydrate, PhaseSpill, PhaseDispatch,
	PhaseJournalAppend, PhaseFsync, PhaseEncode, PhaseOther,
}

// KnownPhase reports whether name is in the phase taxonomy.
func KnownPhase(name string) bool { return phaseIndex(name) >= 0 }

// SpanAttrPhasePfx prefixes per-phase span attributes: a finished
// request span carries "phase.decode", "phase.encode", … with
// nanosecond self-time values.
const SpanAttrPhasePfx = "phase."

const numPhases = len(PhaseNames)

// maxPhaseDepth bounds region nesting; the request path nests at most
// four deep (other → session.lookup → rehydrate or spill, or other →
// journal.append → fsync), so eight leaves headroom. Regions opened
// beyond the bound are dropped, never mis-accounted.
const maxPhaseDepth = 8

func phaseIndex(name string) int {
	switch name {
	case PhaseDecode:
		return 0
	case PhaseSessionLookup:
		return 1
	case PhaseRehydrate:
		return 2
	case PhaseSpill:
		return 3
	case PhaseDispatch:
		return 4
	case PhaseJournalAppend:
		return 5
	case PhaseFsync:
		return 6
	case PhaseEncode:
		return 7
	case PhaseOther:
		return 8
	default:
		return -1
	}
}

// phaseFrame is one open region on the timer's stack.
type phaseFrame struct {
	idx   int8
	start time.Time
	// child accumulates nested regions' wall time, subtracted from
	// this frame's elapsed at End so the parent records self time only.
	child time.Duration
}

// PhaseTimer attributes one request's latency to named phases. It is
// a plain value meant to live inside its owner's pooled per-request
// state (Reset arms it for the next request), allocation-free on the
// Start/End path (fixed arrays, value-type regions), and nil-safe:
// every method on a nil timer is a no-op, so un-instrumented paths
// thread a nil pointer and pay one pointer test per phase boundary.
//
// Regions must end in LIFO order on the goroutine that started them —
// true by construction for the HTTP request path, where regions are
// lexically scoped. The internal mutex keeps concurrent misuse safe
// (never corrupting memory), not meaningful.
type PhaseTimer struct {
	mu    sync.Mutex
	clock Clock
	times PhaseTimes
	stack [maxPhaseDepth]phaseFrame
	depth int
}

// PhaseRegion is one open phase region; End closes it. The zero value
// (from a nil or saturated timer) is a no-op to End.
type PhaseRegion struct {
	pt *PhaseTimer
	ok bool
}

// Reset clears the timer and arms it with clock (nil means the system
// clock). Contexts still holding the timer from an earlier request
// must be dead.
func (pt *PhaseTimer) Reset(clock Clock) {
	if clock == nil {
		clock = System()
	}
	pt.mu.Lock()
	pt.clock = clock
	pt.times = PhaseTimes{}
	pt.stack = [maxPhaseDepth]phaseFrame{}
	pt.depth = 0
	pt.mu.Unlock()
}

// Start opens a region for the named phase. Unknown phase names and
// over-deep nesting return a no-op region rather than corrupting the
// accounting.
func (pt *PhaseTimer) Start(name string) PhaseRegion {
	if pt == nil {
		return PhaseRegion{}
	}
	idx := phaseIndex(name)
	if idx < 0 {
		return PhaseRegion{}
	}
	now := pt.clock.Now()
	pt.mu.Lock()
	if pt.depth == maxPhaseDepth {
		pt.mu.Unlock()
		return PhaseRegion{}
	}
	pt.stack[pt.depth] = phaseFrame{idx: int8(idx), start: now}
	pt.depth++
	pt.mu.Unlock()
	return PhaseRegion{pt: pt, ok: true}
}

// End closes the region, attributing its self time (elapsed minus
// nested regions) to its phase and its full elapsed to the enclosing
// frame's child accumulator.
func (r PhaseRegion) End() {
	if !r.ok {
		return
	}
	pt := r.pt
	now := pt.clock.Now()
	pt.mu.Lock()
	if pt.depth > 0 {
		pt.depth--
		f := pt.stack[pt.depth]
		elapsed := now.Sub(f.start)
		self := elapsed - f.child
		if self < 0 {
			self = 0
		}
		pt.times.Self[f.idx] += self
		pt.times.Count[f.idx]++
		if pt.depth > 0 {
			pt.stack[pt.depth-1].child += elapsed
		}
	}
	pt.mu.Unlock()
}

// PhaseTimes is one request's closed-region accounting, indexed like
// PhaseNames: accumulated self time and region count per phase. A
// phase was recorded iff its Count is non-zero. It is a pointer-free
// value, so holders (the flight recorder's ring) retain it without
// allocating; the map and header forms are built only for readers.
type PhaseTimes struct {
	Self  [numPhases]time.Duration
	Count [numPhases]uint32
}

// phaseAttrKeys are the span attribute keys of the phases
// (SpanAttrPhasePfx + name), indexed like PhaseNames.
var phaseAttrKeys = func() (keys [numPhases]string) {
	for i, name := range PhaseNames {
		keys[i] = SpanAttrPhasePfx + name
	}
	return keys
}()

// SetPhaseAttrs records every phase in t as a "phase.<name>" attribute
// holding its self time in nanoseconds. The values are rendered into
// one buffer and the attributes are slices of the one string it
// becomes: one allocation, not one per phase.
func (s *Span) SetPhaseAttrs(t PhaseTimes) {
	if s == nil {
		return
	}
	var digits [numPhases * 20]byte
	var ends [numPhases]int
	nums := digits[:0]
	for i := range PhaseNames {
		if t.Count[i] > 0 {
			nums = strconv.AppendInt(nums, t.Self[i].Nanoseconds(), 10)
		}
		ends[i] = len(nums)
	}
	all, from := string(nums), 0
	for i, to := range ends {
		if t.Count[i] > 0 {
			s.SetAttr(phaseAttrKeys[i], all[from:to])
		}
		from = to
	}
}

// Times returns the accounting so far (zero on a nil timer) — one lock
// and one copy, after which every consumer reads the same snapshot.
func (pt *PhaseTimer) Times() PhaseTimes {
	if pt == nil {
		return PhaseTimes{}
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.times
}

// Total returns the summed self time across all phases — exactly the
// wall time of the outermost region when regions nest properly.
func (t PhaseTimes) Total() time.Duration {
	var total time.Duration
	for _, d := range t.Self {
		total += d
	}
	return total
}

// Map returns the recorded phases as a name → nanoseconds map (nil
// when nothing was recorded) — the flight-dump representation.
func (t PhaseTimes) Map() map[string]int64 {
	var m map[string]int64
	for i, name := range PhaseNames {
		if t.Count[i] == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int64, numPhases)
		}
		m[name] = t.Self[i].Nanoseconds()
	}
	return m
}

// AppendServerTiming appends the recorded phases as a Server-Timing
// header value ("decode;dur=0.041, encode;dur=0.012": milliseconds to
// three decimals, i.e. self time rounded half-up to the microsecond)
// and appends nothing when no phase was recorded. A handler renders it
// when its status commits, so the still-open catch-all region around
// the handler is deliberately absent.
func (t PhaseTimes) AppendServerTiming(dst []byte) []byte {
	first := true
	for i, name := range PhaseNames {
		if t.Count[i] == 0 {
			continue
		}
		if !first {
			dst = append(dst, ", "...)
		}
		first = false
		us := (t.Self[i].Nanoseconds() + 500) / 1000
		dst = append(dst, name...)
		dst = append(dst, ";dur="...)
		dst = strconv.AppendInt(dst, us/1000, 10)
		frac := us % 1000
		dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	}
	return dst
}

// EachServerTiming calls fn with the name and duration of every
// "name;dur=<ms>" entry of a Server-Timing header value, in header
// order, without allocating — the router folds each node's response
// header into its per-phase totals this way on every forward, which
// attributes fleet latency to a node's phase without a second round
// trip. Entries without a well-formed non-negative dur are skipped; a
// name that repeats is reported each time.
func EachServerTiming(v string, fn func(name string, d time.Duration)) {
	for v != "" {
		var entry string
		entry, v, _ = strings.Cut(v, ",")
		name, params, ok := strings.Cut(entry, ";")
		if !ok {
			continue
		}
		name = strings.TrimSpace(name)
		for params != "" {
			var param string
			param, params, _ = strings.Cut(params, ";")
			k, val, ok := strings.Cut(strings.TrimSpace(param), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil || ms < 0 {
				continue
			}
			fn(name, time.Duration(ms*float64(time.Millisecond)))
		}
	}
}

// PhasesFrom extracts the request's timer (a Scope carries it, so
// deeper layers — tenant, durable, interp — can record their phases),
// nil when the request path is un-instrumented (including a nil ctx, so
// backend-internal calls with no context skip the context lookup
// entirely).
func PhasesFrom(ctx context.Context) *PhaseTimer {
	if ctx == nil {
		return nil
	}
	pt, _ := ctx.Value(phaseCtxKey).(*PhaseTimer)
	return pt
}

// ValidatePhases checks the per-phase attributes on exported spans:
// every "phase.*" attribute must name a known phase, parse as a
// non-negative integer nanosecond count, and the per-span phase sum
// must not exceed the span's duration — self-time accounting
// guarantees the phases tile a window strictly inside the span.
// lce-tracecheck runs this after the structural Validate.
func ValidatePhases(spans []SpanData) error {
	for _, sp := range spans {
		var sum int64
		for k, v := range sp.Attrs {
			name, ok := strings.CutPrefix(k, SpanAttrPhasePfx)
			if !ok {
				continue
			}
			if !KnownPhase(name) {
				return &PhaseError{Span: sp.SpanID, Attr: k, Reason: "unknown phase name"}
			}
			ns, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ns < 0 {
				return &PhaseError{Span: sp.SpanID, Attr: k, Reason: "phase duration is not a non-negative integer: " + v}
			}
			sum += ns
		}
		if dur := sp.Duration().Nanoseconds(); sum > dur {
			return &PhaseError{Span: sp.SpanID, Attr: SpanAttrPhasePfx + "*",
				Reason: "phase sum " + strconv.FormatInt(sum, 10) + "ns exceeds span duration " + strconv.FormatInt(dur, 10) + "ns"}
		}
	}
	return nil
}

// PhaseError reports one span whose phase attributes break the
// ValidatePhases invariants.
type PhaseError struct {
	Span   string
	Attr   string
	Reason string
}

func (e *PhaseError) Error() string {
	return "span " + e.Span + " attr " + e.Attr + ": " + e.Reason
}
