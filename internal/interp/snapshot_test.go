package interp

import (
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
)

// populate drives a small but representative history: live instances,
// a cross-SM association, and a destroyed instance that must survive
// the snapshot as a dead record.
func populate(t *testing.T, emu *Emulator) {
	t.Helper()
	invoke(t, emu, "CreateNic", cloudapi.Params{"zone": cloudapi.Str("us-east")})
	invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")})
	invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-west")})
	invoke(t, emu, "AssociateNic", cloudapi.Params{
		"self":   cloudapi.Str("eipalloc-00000001"),
		"nicRef": cloudapi.Str("eni-00000001"),
	})
	invoke(t, emu, "DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000002")})
}

func TestExportStateDeterministic(t *testing.T) {
	emu := newToyEmulator(t)
	populate(t, emu)
	a, b := emu.ExportState(), emu.ExportState()
	if !cloudapitest.DeepEqual(a, b) {
		t.Fatalf("two exports of the same world differ:\n%+v\n%+v", a, b)
	}
	for i := 1; i < len(a.Instances); i++ {
		p, q := a.Instances[i-1], a.Instances[i]
		if p.Type > q.Type || (p.Type == q.Type && p.ID >= q.ID) {
			t.Errorf("instances not sorted: %s/%s before %s/%s", p.Type, p.ID, q.Type, q.ID)
		}
	}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	src := newToyEmulator(t)
	populate(t, src)
	st := src.ExportState()

	dst := newToyEmulator(t)
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got := dst.ExportState(); !cloudapitest.DeepEqual(got, st) {
		t.Fatalf("re-export differs from restored state:\n got %+v\nwant %+v", got, st)
	}

	// The dead instance must still be dead, and the live ones live.
	if dst.World().CountLive("PublicIp") != src.World().CountLive("PublicIp") {
		t.Errorf("live PublicIp: restored %d, source %d",
			dst.World().CountLive("PublicIp"), src.World().CountLive("PublicIp"))
	}

	// Behavioural parity from here on: the restored world must answer
	// the same calls with the same results — including continuing the
	// ID sequence where the source left off.
	steps := []struct {
		action string
		params cloudapi.Params
	}{
		{"CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}},
		{"DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000002")}}, // already dead
		{"DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000001")}}, // InUse
		{"CreateNic", cloudapi.Params{"zone": cloudapi.Str("us-west")}},
	}
	for _, s := range steps {
		gr, ge := dst.Invoke(cloudapi.Request{Action: s.action, Params: s.params})
		wr, we := src.Invoke(cloudapi.Request{Action: s.action, Params: s.params})
		if !cloudapitest.DeepEqual(gr, wr) || !cloudapitest.DeepEqual(ge, we) {
			t.Errorf("%s: restored (%v, %v) != source (%v, %v)", s.action, gr, ge, wr, we)
		}
	}
}

func TestRestoreReplacesState(t *testing.T) {
	emu := newToyEmulator(t)
	populate(t, emu)
	empty := newToyEmulator(t).ExportState()
	if err := emu.RestoreState(empty); err != nil {
		t.Fatalf("RestoreState(empty): %v", err)
	}
	if n := emu.World().CountLive("PublicIp"); n != 0 {
		t.Errorf("restore did not replace state: %d live PublicIp", n)
	}
	// The ID generator was reset too: the next create starts over.
	res := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")})
	if id := res.Get("allocationId").AsString(); id != "eipalloc-00000001" {
		t.Errorf("post-restore allocationId = %q, want eipalloc-00000001", id)
	}
}

func TestRestoreRejectsUnknownType(t *testing.T) {
	emu := newToyEmulator(t)
	st := WorldState{IDs: map[string]int{}, Instances: []InstanceState{{Type: "Volume", ID: "vol-1"}}}
	if err := emu.RestoreState(st); err == nil {
		t.Fatal("restoring an instance type the spec does not declare must fail")
	}
}
