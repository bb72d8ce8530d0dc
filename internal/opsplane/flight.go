package opsplane

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lce/internal/obsv"
)

// FlightRecord is one captured HTTP exchange: enough of the wire
// conversation to re-drive it against a fresh emulator (cmd/lce-replay)
// and byte-compare the responses.
type FlightRecord struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Method    string    `json:"method"`
	Path      string    `json:"path"`
	Session   string    `json:"session,omitempty"`
	Action    string    `json:"action,omitempty"`
	TraceID   string    `json:"traceId,omitempty"`
	RequestID string    `json:"requestId,omitempty"`
	Status    int       `json:"status"`
	LatencyNs int64     `json:"latencyNs"`
	// RequestBody/ResponseBody hold the wire bytes verbatim, as JSON
	// strings (the HAR convention). Embedding them as nested JSON would
	// read better but cannot round-trip exactly — encoding/json compacts
	// and re-indents RawMessage — and exact bytes are the whole point:
	// lce-replay's byte-diff must see what actually crossed the wire.
	// Each holds at most the first httpapi.MaxBody bytes.
	RequestBody  string `json:"requestBody,omitempty"`
	ResponseBody string `json:"responseBody,omitempty"`
	// Phases is the request's latency attribution: phase name →
	// self-time nanoseconds, from the obsv.PhaseTimer that rode the
	// request. The values sum to LatencyNs (minus the writer's own
	// post-handler accounting), so a flight dump doubles as a
	// per-request latency profile.
	Phases map[string]int64 `json:"phases,omitempty"`
	// PhaseTimes is the capture-side form of Phases: the request path
	// hands the recorder the timer's pointer-free accounting, and
	// Snapshot builds the Phases map from it for whoever reads the
	// window, so capturing a request allocates no map.
	PhaseTimes obsv.PhaseTimes `json:"-"`
}

// FlightDumpSchema versions the dump format for lce-replay.
const FlightDumpSchema = 1

// FlightDump is the serialized recorder state served by
// GET /debug/flightrecorder and consumed by cmd/lce-replay.
type FlightDump struct {
	Schema   int    `json:"schema"`
	Service  string `json:"service,omitempty"`
	Capacity int    `json:"capacity"`
	// Recorded is the total ever captured; when it exceeds Capacity the
	// window has wrapped and Records holds only the newest Capacity.
	Recorded uint64         `json:"recorded"`
	Records  []FlightRecord `json:"records"`
}

// ReadDump parses a FlightDump from r.
func ReadDump(r io.Reader) (*FlightDump, error) {
	var d FlightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

const (
	// DefaultFlightCapacity is the recorder window when the config
	// leaves it zero.
	DefaultFlightCapacity = 1024
	flightShards          = 8
)

// FlightRecorder keeps the last N requests in a lock-sharded ring.
// Writers take one shard lock chosen by the record's global sequence,
// so concurrent handlers rarely contend; Snapshot reassembles the
// window in capture order.
type FlightRecorder struct {
	capacity int
	seq      atomic.Uint64
	shards   [flightShards]flightShard
	total    *obsv.Counter
}

type flightShard struct {
	mu   sync.Mutex
	ring []FlightRecord // fixed capacity/flightShards (+1) slots
}

// NewFlightRecorder returns a recorder holding the last capacity
// exchanges (DefaultFlightCapacity when <= 0). A non-nil registry
// receives lce_flight_records_total.
func NewFlightRecorder(capacity int, reg *obsv.Registry) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	f := &FlightRecorder{capacity: capacity, total: reg.Counter(obsv.MetricFlightRecords)}
	per := capacity / flightShards
	if capacity%flightShards != 0 {
		per++
	}
	for i := range f.shards {
		f.shards[i].ring = make([]FlightRecord, per)
	}
	return f
}

// Capacity returns the window size.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return f.capacity
}

// Add captures one exchange. The record's Seq is assigned here
// (1-based capture order). Nil-safe.
func (f *FlightRecorder) Add(rec FlightRecord) {
	if f == nil {
		return
	}
	rec.Seq = f.seq.Add(1)
	// Consecutive sequence numbers stripe across shards; within a
	// shard they stride by flightShards, so slot reuse implements the
	// ring eviction of the oldest record. The sequence is taken before
	// the lock, so two writers a ring apart can reach the slot in
	// either order: the newer record keeps it.
	sh := &f.shards[rec.Seq%flightShards]
	slot := int(rec.Seq/flightShards) % len(sh.ring)
	sh.mu.Lock()
	if sh.ring[slot].Seq < rec.Seq {
		sh.ring[slot] = rec
	}
	sh.mu.Unlock()
	f.total.Inc()
}

// Recorded returns the total number of exchanges ever captured.
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Snapshot returns the retained window sorted by capture order
// (oldest first). The window holds at most Capacity records; after
// wrap only the newest survive.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	newest := f.seq.Load()
	oldest := uint64(1)
	if newest > uint64(f.capacity) {
		oldest = newest - uint64(f.capacity) + 1
	}
	out := make([]FlightRecord, 0, newest-oldest+1)
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.ring {
			if rec.Seq >= oldest && rec.Seq <= newest {
				if rec.Phases == nil {
					rec.Phases = rec.PhaseTimes.Map()
				}
				out = append(out, rec)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump packages the current window for serving or writing to disk.
func (f *FlightRecorder) Dump(service string) *FlightDump {
	return &FlightDump{
		Schema:   FlightDumpSchema,
		Service:  service,
		Capacity: f.Capacity(),
		Recorded: f.Recorded(),
		Records:  f.Snapshot(),
	}
}
