package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/durable"
	"lce/internal/interp"
	"lce/internal/spec"
	"lce/internal/tenant"
)

func createIP(b cloudapi.Backend, region string) (cloudapi.Result, error) {
	return b.Invoke(cloudapi.Request{
		Action: "CreatePublicIp",
		Params: cloudapi.Params{"region": cloudapi.Str(region)},
	})
}

// TestDurableBenchSmoke runs the durability scenarios at smoke size
// over the toy emulator: the journal write path answers like the bare
// emulator at every fsync policy, spill and rehydrate keep a session's
// world, and sessions beyond the pool's capacity keep their state
// across spills.
func TestDurableBenchSmoke(t *testing.T) {
	dir := t.TempDir()
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		t.Fatal(err)
	}
	if errs := spec.Check(svc, spec.Strict); len(errs) > 0 {
		t.Fatalf("toy spec: %v", errs[0])
	}
	bare, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	fresh := cloudapi.FactoryOf(bare)

	// Write path: 16 creates with journaling off, then through the
	// durable wrapper at each fsync policy, answer alike.
	const calls = 16
	run := func(b cloudapi.Backend) []cloudapi.Result {
		var out []cloudapi.Result
		for i := 0; i < calls; i++ {
			r, err := createIP(b, "us-east")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	want := run(fresh())
	for _, pol := range []string{durable.FsyncOff, durable.FsyncBatch, durable.FsyncAlways} {
		store, err := durable.Open(durable.Config{Dir: filepath.Join(dir, "calls-"+pol), Fsync: pol, CompactEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		b, ok := store.Adopt(context.Background(), "bench", fresh())
		if !ok {
			t.Fatalf("fsync=%s: adopt failed", pol)
		}
		if got := run(b); !cloudapitest.DeepEqual(got, want) {
			t.Errorf("fsync=%s: journaled calls answered %v, bare emulator %v", pol, got, want)
		}
	}

	// Spill / rehydrate: a world of 8 instances goes to disk and comes
	// back twice; each spill writes a snapshot and the next create
	// mints the next ID.
	store, err := durable.Open(durable.Config{Dir: filepath.Join(dir, "cycle-8"), Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := store.Adopt(context.Background(), "cycle", fresh())
	if !ok {
		t.Fatal("adopt failed")
	}
	const world = 8
	for i := 0; i < world; i++ {
		if _, err := createIP(b, "us-east"); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 2; c++ {
		// One journaled call per residency gives the spill a
		// checkpoint to write; it fails its assert, so the world
		// stays at 8 instances.
		createIP(b, "mars")
		n, err := store.Spill("cycle", b)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("cycle %d: spill wrote %d snapshot bytes", c, n)
		}
		if b, ok = store.Adopt(context.Background(), "cycle", fresh()); !ok {
			t.Fatalf("cycle %d: re-adopt failed", c)
		}
	}
	r, err := createIP(b, "us-east")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Get("allocationId").AsString(), fmt.Sprintf("eipalloc-%08d", world+1); got != want {
		t.Errorf("after 2 spill/rehydrate cycles the next create minted %q, want %q", got, want)
	}

	// Sessions beyond RAM: 12 sessions over a 2-slot pool, 3 passes.
	// The Nth create in a session must mint the Nth ID, which holds
	// only if every spilled world came back intact.
	const sessions, resident, passes = 12, 2, 3
	capDir := filepath.Join(dir, "capacity")
	capStore, err := durable.Open(durable.Config{Dir: capDir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := tenant.New(fresh, tenant.Config{Shards: 1, Capacity: resident, Spill: capStore})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < passes; pass++ {
		for g := 0; g < sessions; g++ {
			sb, err := pool.Get(fmt.Sprintf("cap-%04d", g))
			if err != nil {
				t.Fatal(err)
			}
			r, err := createIP(sb, "us-east")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := r.Get("allocationId").AsString(), fmt.Sprintf("eipalloc-%08d", pass+1); got != want {
				t.Fatalf("sessions-beyond-RAM continuity broken: cap-%04d pass %d minted %q, want %q", g, pass, got, want)
			}
		}
	}
	if st := pool.Stats(); st.Spills < sessions-resident {
		t.Errorf("capacity run spilled only %d times for %d sessions over %d slots", st.Spills, sessions, resident)
	}
	var diskBytes int64
	filepath.Walk(capDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			diskBytes += fi.Size()
		}
		return nil
	})
	if diskBytes <= 0 {
		t.Error("capacity run left nothing on disk")
	}
}
