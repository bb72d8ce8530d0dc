package durable

import (
	"strings"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi/cloudapitest"
)

// TestExportRestoreBareEmulator: export from one live emulator,
// restore into a fresh one, and the worlds — and every later answer —
// match a control that never moved.
func TestExportRestoreBareEmulator(t *testing.T) {
	src := newToyEmu(t)
	for i := 0; i < 7; i++ {
		toyCall(src, i)
	}
	data, err := ExportBackend(src)
	if err != nil {
		t.Fatalf("ExportBackend: %v", err)
	}

	dst := newToyEmu(t)
	if err := RestoreBackend(dst, data); err != nil {
		t.Fatalf("RestoreBackend: %v", err)
	}
	if !cloudapitest.DeepEqual(dst.ExportState(), controlState(t, 7)) {
		t.Fatal("restored world differs from control")
	}
	// Post-migration calls must continue the ID streams exactly.
	for i := 7; i < 12; i++ {
		gotRes, gotErr := toyCall(dst, i)
		wantRes, wantErr := toyCall(src, i)
		if !cloudapitest.DeepEqual(gotRes, wantRes) || !errEq(gotErr, wantErr) {
			t.Fatalf("step %d diverged after restore: got (%v, %v) want (%v, %v)", i, gotRes, gotErr, wantRes, wantErr)
		}
	}
}

// TestExportRestoreJournaledSession: the migration path the cluster
// uses — export from a journaled wrapper on one store, import into a
// journaled wrapper on another, then crash the receiver and recover
// from its disk alone. The import's immediate checkpoint is what
// makes the recovery correct: without it the receiver's (empty)
// journal would replay over nothing.
func TestExportRestoreJournaledSession(t *testing.T) {
	srcStore, _ := openTest(t, t.TempDir(), nil)
	src, _ := adoptEmu(t, srcStore, "mig")
	for i := 0; i < 6; i++ {
		toyCall(src, i)
	}
	data, err := ExportBackend(src)
	if err != nil {
		t.Fatalf("ExportBackend(journaled): %v", err)
	}

	dstDir := t.TempDir()
	dstStore, _ := openTest(t, dstDir, nil)
	dst, _ := adoptEmu(t, dstStore, "mig")
	if err := RestoreBackend(dst, data); err != nil {
		t.Fatalf("RestoreBackend(journaled): %v", err)
	}
	// A few post-import calls land in the receiver's journal.
	for i := 6; i < 9; i++ {
		toyCall(dst, i)
	}
	_ = dstStore // the receiver now "crashes": its state is only what reached disk

	recStore, _ := openTest(t, dstDir, nil)
	_, recEmu := adoptEmu(t, recStore, "mig")
	if !cloudapitest.DeepEqual(recEmu.ExportState(), controlState(t, 9)) {
		t.Fatal("recovered world after import+crash differs from control")
	}
}

// TestExportNotSnapshottable: a chain without a learned emulator has
// no portable state; the error says so.
func TestExportNotSnapshottable(t *testing.T) {
	if _, err := ExportBackend(ec2.New()); err == nil || !strings.Contains(err.Error(), "not snapshottable") {
		t.Fatalf("ExportBackend(oracle) = %v, want not-snapshottable error", err)
	}
	data, err := ExportBackend(newToyEmu(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreBackend(ec2.New(), data); err == nil || !strings.Contains(err.Error(), "not snapshottable") {
		t.Fatalf("RestoreBackend(oracle) = %v, want not-snapshottable error", err)
	}
}

// TestRestoreRejectsGarbage: corrupt bytes fail the self-verifying
// decode, and the target's world is untouched.
func TestRestoreRejectsGarbage(t *testing.T) {
	dst := newToyEmu(t)
	toyCall(dst, 0)
	before := dst.ExportState()
	if err := RestoreBackend(dst, []byte("not a snapshot")); err == nil {
		t.Fatal("RestoreBackend(garbage) succeeded")
	}
	if !cloudapitest.DeepEqual(dst.ExportState(), before) {
		t.Fatal("failed restore mutated the target world")
	}
}

func errEq(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}
