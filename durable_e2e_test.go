package lce

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lce/internal/httpapi"
	"lce/internal/opsplane"
)

// durableConfig is the stack both sides of the kill-and-recover oracle
// build: learned backend (the snapshottable one), chaos on, multi-
// tenant, durable tier over dir.
func durableConfig(dir string) ServerConfig {
	cfg := calmDurableConfig(dir)
	cfg.Chaos, cfg.ChaosSeed, cfg.FaultRate = true, 7, 0.3
	return cfg
}

// calmDurableConfig is durableConfig without the chaos layer: the
// stack whose describes are not journaled.
func calmDurableConfig(dir string) ServerConfig {
	return ServerConfig{
		Service: "ec2", Backend: "learned",
		TraceSeed: 3,
		Sessions:  8, Shards: 2, SessionTTL: time.Hour,
		DataDir: dir, Fsync: "off",
		Ops: true, FlightCapacity: 16,
	}
}

// driveV2 sends one pinned data-plane request in-process and returns
// (status, body). The request ID is pinned via header, as lce-replay
// does, so ID-bearing response fields are reproducible across stacks.
func driveV2(t *testing.T, h http.Handler, session, reqID, action, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v2/ec2?Action="+action, strings.NewReader(body))
	req.Header.Set(httpapi.SessionHeader, session)
	req.Header.Set(httpapi.RequestIDHeader, reqID)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// durableScript is a deterministic traffic pattern over four sessions,
// mixing mutations (CreateVpc advances per-session ID generators — any
// lost or double-applied call shifts every later ID) with reads, all
// through the 30% chaos layer.
func durableScript(i int) (session, action, body string) {
	session = fmt.Sprintf("d%d", i%4)
	if i%3 == 2 {
		return session, "DescribeVpcs", `{"params":{}}`
	}
	return session, "CreateVpc", fmt.Sprintf(`{"params":{"cidrBlock":"10.%d.0.0/16"}}`, i%200)
}

// TestDurableKillRecoverByteIdentical is the tentpole acceptance
// oracle: a chaos-soaked multi-session server is killed mid-traffic
// and rebuilt over the same data directory; every session must then
// answer byte-identically to an unkilled control that saw the same
// full request sequence. It runs with the chaos layer (every call is
// journaled, reads included, to keep the fault stream in step) and
// without it (describes skip the journal, so recovery must not need
// them).
func TestDurableKillRecoverByteIdentical(t *testing.T) {
	t.Run("chaos", func(t *testing.T) { killRecoverByteIdentical(t, durableConfig) })
	t.Run("calm", func(t *testing.T) { killRecoverByteIdentical(t, calmDurableConfig) })
}

func killRecoverByteIdentical(t *testing.T, config func(dir string) ServerConfig) {
	dirA := t.TempDir()
	victim, err := NewServer(config(dirA))
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewServer(config(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	const kill, total = 40, 64
	for i := 0; i < kill; i++ {
		session, action, body := durableScript(i)
		reqID := fmt.Sprintf("p1-%03d", i)
		vs, vb := driveV2(t, victim.Handler, session, reqID, action, body)
		cs, cb := driveV2(t, control.Handler, session, reqID, action, body)
		if vs != cs || !bytes.Equal(vb, cb) {
			t.Fatalf("pre-kill request %d already diverges (%d vs %d):\n%s\n%s", i, vs, cs, vb, cb)
		}
	}

	// Kill: the victim is abandoned with journals unflushed-but-written
	// and no spill — recovery has only what the WAL captured.
	recovered, err := NewServer(config(dirA))
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered.Recovered) < 4 {
		t.Fatalf("restarted server recovered %d sessions, want ≥ 4: %+v", len(recovered.Recovered), recovered.Recovered)
	}

	diverged := 0
	for i := kill; i < total; i++ {
		session, action, body := durableScript(i)
		reqID := fmt.Sprintf("p2-%03d", i)
		rs, rb := driveV2(t, recovered.Handler, session, reqID, action, body)
		cs, cb := driveV2(t, control.Handler, session, reqID, action, body)
		if rs != cs || !bytes.Equal(rb, cb) {
			diverged++
			t.Errorf("post-recovery request %d (%s %s) diverges:\nrecovered %d %s\ncontrol   %d %s",
				i, session, action, rs, rb, cs, cb)
		}
	}
	if diverged == 0 {
		// Sanity: the chaos layer must actually have fired, or the test
		// proves much less than it claims.
		if st := recovered.Store.Stats(); st.Rehydrations < 4 {
			t.Errorf("only %d sessions rehydrated, want ≥ 4", st.Rehydrations)
		}
	}

	// The pool stats surface must expose the durable tier.
	resp := httptest.NewRecorder()
	recovered.Handler.ServeHTTP(resp, httptest.NewRequest(http.MethodGet, "/v2/sessions", nil))
	if resp.Code != http.StatusOK || !strings.Contains(resp.Body.String(), `"spilled"`) {
		t.Errorf("/v2/sessions does not expose the spill tier: %d %s", resp.Code, resp.Body.String())
	}
}

// TestReplayPartialWindowAgainstBaseline is the lce-replay satellite:
// a flight window that does NOT cover the run from boot replays
// byte-identically when the stack rehydrates from a durable baseline
// captured at the window's start — the -data-dir fix for the old
// "dump must cover the whole run" caveat.
func TestReplayPartialWindowAgainstBaseline(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)

	// Phase 1: traffic the flight window will have forgotten.
	first, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		session, action, body := durableScript(i)
		driveV2(t, first.Handler, session, fmt.Sprintf("w1-%03d", i), action, body)
	}

	// The baseline: the data directory as it stands at the window
	// start (operationally: a copy taken before the captured traffic).
	baseline := t.TempDir()
	copyTree(t, dir, baseline)

	// Phase 2: a restarted server serves the window that gets captured.
	second, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const window = 10
	for i := 20; i < 20+window; i++ {
		session, action, body := durableScript(i)
		driveV2(t, second.Handler, session, fmt.Sprintf("w2-%03d", i), action, body)
	}
	w := httptest.NewRecorder()
	second.Handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/flightrecorder", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("flightrecorder dump: %d", w.Code)
	}
	dump, err := opsplane.ReadDump(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != window {
		t.Fatalf("flight window holds %d records, want %d", len(dump.Records), window)
	}

	// Replay the window against a read-only rehydration of the
	// baseline, exactly as lce-replay -data-dir does.
	rcfg := cfg
	rcfg.DataDir = baseline
	rcfg.ReadOnlyData = true
	replay, err := NewServer(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	before := treeListing(t, baseline)
	for _, rec := range dump.Records {
		req := httptest.NewRequest(rec.Method, rec.Path, strings.NewReader(rec.RequestBody))
		if rec.Session != "" {
			req.Header.Set(httpapi.SessionHeader, rec.Session)
		}
		if rec.RequestID != "" {
			req.Header.Set(httpapi.RequestIDHeader, rec.RequestID)
		}
		rw := httptest.NewRecorder()
		replay.Handler.ServeHTTP(rw, req)
		if rw.Code != rec.Status || rw.Body.String() != rec.ResponseBody {
			t.Errorf("record #%d %s %s diverges:\ncaptured %d %s\nreplayed %d %s",
				rec.Seq, rec.Method, rec.Path, rec.Status, rec.ResponseBody, rw.Code, rw.Body.String())
		}
	}
	if after := treeListing(t, baseline); after != before {
		t.Errorf("read-only replay mutated the baseline:\nbefore %s\nafter  %s", before, after)
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func treeListing(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			fmt.Fprintf(&sb, "%s:%d\n", rel, fi.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
