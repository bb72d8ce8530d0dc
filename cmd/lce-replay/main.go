// Command lce-replay re-drives a flight-recorder dump against a
// freshly built emulator stack and reports byte-level divergences.
//
// The flight recorder (GET /debug/flightrecorder on lce-server) keeps
// the last N data-plane requests — method, path, session, request ID,
// and the exact request/response bytes. Because every backend in this
// repository is deterministic and the chaos layer is seed-driven, a
// server rebuilt from the same configuration must answer the same
// request sequence with the same bytes. lce-replay checks exactly
// that:
//
//	curl -s localhost:4566/debug/flightrecorder > flight.json
//	lce-replay -dump flight.json -backend oracle -chaos -fault-rate 0.2 -chaos-seed 7
//
// Pass the same backend/chaos/trace flags the capturing server ran
// with (-service defaults to the dump's own service). Any response
// that differs is printed with the first diverging byte offset; the
// exit status is non-zero when any record diverges.
//
// A partial window (a -flight window smaller than the run) replays
// exactly when the captured state before the window is available:
// point -data-dir at the capturing server's data directory and the
// replay stack restores every session — latest snapshot plus journal
// — before the first record is driven. The directory is opened
// read-only; replaying never mutates the baseline. Without -data-dir
// the old caveat stands: chaos decisions are drawn in call order from
// server boot, so byte-identical replay of a chaos run needs a dump
// covering the whole run. Without -chaos and without prior state, any
// captured window replays exactly.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"lce"
	"lce/internal/httpapi"
	"lce/internal/opsplane"
)

func main() {
	var (
		dumpPath  = flag.String("dump", "", "flight-recorder dump to replay (a /debug/flightrecorder response; \"-\" = stdin)")
		service   = flag.String("service", "", "service to emulate (default: the dump's service)")
		backend   = flag.String("backend", "learned", "backend kind: learned | oracle | d2c | manual")
		noisy     = flag.Bool("noisy", false, "synthesize the learned backend with the preliminary noise model")
		chaos     = flag.Bool("chaos", false, "replay against the same deterministic fault injector")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the fault-injection stream")
		faultRate = flag.Float64("fault-rate", 0.1, "total per-call fault probability when -chaos is set")
		traceSeed = flag.Int64("trace-seed", 1, "seed for span/trace IDs")
		sessions  = flag.Int("sessions", 64, "max resident tenant sessions")
		shards    = flag.Int("shards", 8, "tenant-pool shard count")
		ttl       = flag.Duration("session-ttl", 15*time.Minute, "tenant idle TTL")
		dataDir   = flag.String("data-dir", "", "restore session state from this durable data directory (opened read-only) before replaying — lets a partial flight window replay against the world it was captured over")
		verbose   = flag.Bool("v", false, "print every replayed record, not just divergences")
	)
	flag.Parse()
	if *dumpPath == "" {
		fmt.Fprintln(os.Stderr, "lce-replay: -dump is required")
		os.Exit(2)
	}

	dump, err := readDump(*dumpPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lce-replay: %v\n", err)
		os.Exit(2)
	}
	svc := *service
	if svc == "" {
		svc = dump.Service
	}
	if svc == "" {
		fmt.Fprintln(os.Stderr, "lce-replay: dump carries no service; pass -service")
		os.Exit(2)
	}

	srv, err := lce.NewServer(lce.ServerConfig{
		Service: svc, Backend: *backend, Noisy: *noisy,
		Chaos: *chaos, ChaosSeed: *chaosSeed, FaultRate: *faultRate,
		TraceSeed: *traceSeed,
		Sessions:  *sessions, Shards: *shards, SessionTTL: *ttl,
		DataDir: *dataDir, ReadOnlyData: *dataDir != "",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lce-replay: %v\n", err)
		os.Exit(2)
	}

	diffs := 0
	for _, rec := range dump.Records {
		want := []byte(rec.ResponseBody)
		got, status := drive(srv, rec)
		if len(want) == httpapi.MaxBody && len(got) > len(want) {
			// The recorder keeps the first MaxBody bytes of a response:
			// a capture that long holds a prefix of the answer.
			got = got[:len(want)]
		}
		switch {
		case status != rec.Status:
			diffs++
			fmt.Printf("DIFF  #%d %s %s: status %d, captured %d\n", rec.Seq, rec.Method, rec.Path, status, rec.Status)
		case !bytes.Equal(got, want):
			diffs++
			off := firstDiff(got, want)
			fmt.Printf("DIFF  #%d %s %s: bodies diverge at byte %d\n", rec.Seq, rec.Method, rec.Path, off)
			fmt.Printf("      captured: %s\n", clip(want, off))
			fmt.Printf("      replayed: %s\n", clip(got, off))
		case *verbose:
			fmt.Printf("OK    #%d %s %s (%d, %d bytes)\n", rec.Seq, rec.Method, rec.Path, status, len(got))
		}
	}
	fmt.Printf("replayed %d records against %s/%s: %d divergence(s)\n", len(dump.Records), svc, *backend, diffs)
	if diffs > 0 {
		os.Exit(1)
	}
}

func readDump(path string) (*opsplane.FlightDump, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		defer f.Close()
	}
	return opsplane.ReadDump(f)
}

// drive replays one record in-process against the rebuilt handler and
// returns the response bytes and status. The captured session and
// request ID are pinned via headers, so ID-bearing response fields
// reproduce exactly.
func drive(srv *lce.Server, rec opsplane.FlightRecord) ([]byte, int) {
	req := httptest.NewRequest(rec.Method, rec.Path, bytes.NewReader([]byte(rec.RequestBody)))
	if rec.Session != "" {
		req.Header.Set(httpapi.SessionHeader, rec.Session)
	}
	if rec.RequestID != "" {
		req.Header.Set(httpapi.RequestIDHeader, rec.RequestID)
	}
	w := httptest.NewRecorder()
	srv.Handler.ServeHTTP(w, req)
	return w.Body.Bytes(), w.Code
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// clip renders body around offset for the diff report, bounded so a
// megabyte response does not flood the terminal.
func clip(body []byte, off int) string {
	const ctx = 80
	start := max(0, off-ctx/2)
	end := min(len(body), start+ctx)
	s := string(body[start:end])
	if start > 0 {
		s = "…" + s
	}
	if end < len(body) {
		s += "…"
	}
	return s
}
