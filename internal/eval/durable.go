package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/interp"
	"lce/internal/spec"
	"lce/internal/tenant"
)

// durableEmulator builds the toy emulator the durability rows run
// over: small enough that the journal/snapshot machinery dominates the
// measurement instead of spec evaluation. Callers build it once and
// fork it per session (cloudapi.FactoryOf), as lce.FactoryFor does in
// production, so every session shares the one compiled program.
func durableEmulator() (*interp.Emulator, error) {
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		return nil, err
	}
	if errs := spec.Check(svc, spec.Strict); len(errs) > 0 {
		return nil, fmt.Errorf("eval: toy spec: %v", errs[0])
	}
	return interp.New(svc)
}

// DurableCallRow times the journal write path: the same call sequence
// with journaling off entirely, then through the durable wrapper at
// each fsync policy. The delta over "none" is what a journaled call
// pays per record.
type DurableCallRow struct {
	// Mode is "none" (bare emulator) or "fsync=off|batch|always".
	Mode    string
	Calls   int
	Elapsed time.Duration
}

// PerCall returns the mean per-call latency.
func (r DurableCallRow) PerCall() time.Duration {
	if r.Calls == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Calls)
}

// DurableCycleRow times one spill/rehydrate cycle at one world size:
// how long eviction-to-disk takes, how long the transparent restore on
// the next touch takes, and how big the checkpoint record is.
type DurableCycleRow struct {
	// WorldSize is the number of instances in the session's world.
	WorldSize int
	// Cycles is how many spill→rehydrate round trips were averaged.
	Cycles int
	// Spill / Rehydrate are totals across all cycles.
	Spill         time.Duration
	Rehydrate     time.Duration
	SnapshotBytes int64
}

// PerSpill returns the mean time to spill once.
func (r DurableCycleRow) PerSpill() time.Duration {
	if r.Cycles == 0 {
		return 0
	}
	return r.Spill / time.Duration(r.Cycles)
}

// PerRehydrate returns the mean time to rehydrate once.
func (r DurableCycleRow) PerRehydrate() time.Duration {
	if r.Cycles == 0 {
		return 0
	}
	return r.Rehydrate / time.Duration(r.Cycles)
}

// DurableCapacityRow is the sessions-beyond-RAM cell: `Sessions`
// journaled sessions served through a pool holding only `Resident`
// worlds in memory, every session touched again after eviction to
// prove continuity (the revisit must continue the session's ID space,
// which only works if its spilled world came back intact).
type DurableCapacityRow struct {
	Resident  int
	Sessions  int
	CallsEach int
	DiskBytes int64
	Elapsed   time.Duration
	Verified  bool
}

// DurableResult bundles the three -durable row families.
type DurableResult struct {
	Calls    []DurableCallRow
	Cycles   []DurableCycleRow
	Capacity DurableCapacityRow
}

// DurableBench measures the durable tier under dir (each row family in
// its own subdirectory): journal write-path overhead per fsync policy,
// spill/rehydrate latency across world sizes, and the
// sessions-beyond-RAM capacity run.
func DurableBench(dir string, calls int, worldSizes []int, cycles, sessions, resident int) (*DurableResult, error) {
	res := &DurableResult{}

	// Write path: bare emulator first, then each fsync policy.
	bare, err := durableEmulator()
	if err != nil {
		return nil, err
	}
	fresh := cloudapi.FactoryOf(bare)
	res.Calls = append(res.Calls, DurableCallRow{Mode: "none", Calls: calls, Elapsed: timeCalls(bare, calls)})
	for _, pol := range []string{durable.FsyncOff, durable.FsyncBatch, durable.FsyncAlways} {
		store, err := durable.Open(durable.Config{
			Dir:   filepath.Join(dir, "calls-"+pol),
			Fsync: pol,
			// Compaction off: this row isolates the append path.
			CompactEvery: 1 << 30,
		})
		if err != nil {
			return nil, err
		}
		b, ok := store.Adopt(context.Background(), "bench", fresh())
		if !ok {
			return nil, fmt.Errorf("eval: durable adopt failed")
		}
		res.Calls = append(res.Calls, DurableCallRow{Mode: "fsync=" + pol, Calls: calls, Elapsed: timeCalls(b, calls)})
	}

	// Spill/rehydrate cycles across world sizes.
	for _, w := range worldSizes {
		store, err := durable.Open(durable.Config{Dir: filepath.Join(dir, fmt.Sprintf("cycle-%d", w)), Fsync: durable.FsyncOff})
		if err != nil {
			return nil, err
		}
		b, ok := store.Adopt(context.Background(), "cycle", fresh())
		if !ok {
			return nil, fmt.Errorf("eval: durable adopt failed")
		}
		timeCalls(b, w)
		row := DurableCycleRow{WorldSize: w, Cycles: cycles}
		for c := 0; c < cycles; c++ {
			// One journaled call per residency, so the spill has a
			// checkpoint to write (an unchanged session spills nothing);
			// it fails its assert, so the world stays at w instances.
			b.Invoke(cloudapi.Request{
				Action: "CreatePublicIp",
				Params: cloudapi.Params{"region": cloudapi.Str("mars")},
			})
			start := time.Now()
			n, err := store.Spill("cycle", b)
			if err != nil {
				return nil, err
			}
			row.Spill += time.Since(start)
			row.SnapshotBytes = n
			next := fresh()
			start = time.Now()
			b, ok = store.Adopt(context.Background(), "cycle", next)
			if !ok {
				return nil, fmt.Errorf("eval: durable re-adopt failed")
			}
			row.Rehydrate += time.Since(start)
		}
		res.Cycles = append(res.Cycles, row)
	}

	// Sessions beyond RAM.
	capDir := filepath.Join(dir, "capacity")
	store, err := durable.Open(durable.Config{Dir: capDir, Fsync: durable.FsyncOff})
	if err != nil {
		return nil, err
	}
	pool, err := tenant.New(fresh, tenant.Config{Shards: 1, Capacity: resident, Spill: store})
	if err != nil {
		return nil, err
	}
	const callsEach = 3
	row := DurableCapacityRow{Resident: resident, Sessions: sessions, CallsEach: callsEach, Verified: true}
	start := time.Now()
	// Each pass touches every session once; with only `resident` slots
	// the pool spills nearly everything between passes, so almost every
	// touch after the first rehydrates from disk.
	for pass := 0; pass < callsEach; pass++ {
		for g := 0; g < sessions; g++ {
			b, err := pool.Get(fmt.Sprintf("cap-%04d", g))
			if err != nil {
				return nil, err
			}
			r, err := b.Invoke(cloudapi.Request{
				Action: "CreatePublicIp",
				Params: cloudapi.Params{"region": cloudapi.Str("us-east")},
			})
			if err != nil {
				return nil, err
			}
			// Continuity oracle: the Nth create in a session must mint
			// the Nth ID, which only holds if the spilled world (IDs
			// included) came back intact on every revisit.
			if want := fmt.Sprintf("eipalloc-%08d", pass+1); r.Get("allocationId").AsString() != want {
				row.Verified = false
			}
		}
	}
	row.Elapsed = time.Since(start)
	if st := pool.Stats(); st.Spills < int64(sessions-resident) {
		return nil, fmt.Errorf("eval: capacity run spilled only %d times for %d sessions over %d slots",
			st.Spills, sessions, resident)
	}
	filepath.Walk(capDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			row.DiskBytes += fi.Size()
		}
		return nil
	})
	res.Capacity = row
	return res, nil
}

// timeCalls drives n deterministic creates through b and returns the
// elapsed wall clock.
func timeCalls(b cloudapi.Backend, n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		b.Invoke(cloudapi.Request{
			Action: "CreatePublicIp",
			Params: cloudapi.Params{"region": cloudapi.Str("us-east")},
		})
	}
	return time.Since(start)
}

// FormatDurable renders the three -durable row families.
func FormatDurable(res *DurableResult) string {
	var b strings.Builder
	if len(res.Calls) > 0 {
		fmt.Fprintf(&b, "Durable write path (%d calls each; overhead vs the \"none\" row)\n", res.Calls[0].Calls)
		fmt.Fprintf(&b, "%-14s %12s %12s\n", "journal", "elapsed", "per-call")
		for _, r := range res.Calls {
			fmt.Fprintf(&b, "%-14s %12s %12s\n", r.Mode, r.Elapsed.Round(time.Microsecond), r.PerCall().Round(time.Nanosecond))
		}
		b.WriteString("\n")
	}
	if len(res.Cycles) > 0 {
		fmt.Fprintf(&b, "Spill / rehydrate latency (%d cycles per row)\n", res.Cycles[0].Cycles)
		fmt.Fprintf(&b, "%-10s %14s %12s %14s\n", "world", "snapshot", "spill", "rehydrate")
		for _, r := range res.Cycles {
			fmt.Fprintf(&b, "%-10d %13dB %12s %14s\n", r.WorldSize, r.SnapshotBytes,
				r.PerSpill().Round(time.Microsecond), r.PerRehydrate().Round(time.Microsecond))
		}
		b.WriteString("\n")
	}
	c := res.Capacity
	verdict := "state continuity verified"
	if !c.Verified {
		verdict = "STATE CONTINUITY BROKEN"
	}
	fmt.Fprintf(&b, "Sessions beyond RAM: %d journaled sessions over %d resident slots\n", c.Sessions, c.Resident)
	fmt.Fprintf(&b, "  %d calls/session in %s, %d bytes on disk — %s\n",
		c.CallsEach, c.Elapsed.Round(time.Millisecond), c.DiskBytes, verdict)
	return b.String()
}
