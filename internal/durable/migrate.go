package durable

import (
	"fmt"

	"lce/internal/cloudapi"
)

// This file is the migration side of the durable tier: a session's
// full state (world, chaos cursor) exported as the same self-verifying
// snapshot bytes a checkpoint record carries, and the inverse restore. The
// cluster front tier (internal/cluster) moves sessions between nodes
// with exactly these two calls — drain on the old owner, export, ship
// the bytes, restore on the new owner — so a migrated session is
// byte-identical to one that never moved: both are a snapshot decode
// away from the same world.

// Inner exposes the journaled wrapper's backend chain, so capture can
// walk through a sessionBackend the same way it walks through the
// chaos and retry layers.
func (sb *sessionBackend) Inner() cloudapi.Backend { return sb.inner }

// ExportBackend snapshots a live backend chain's session state —
// emulator world plus chaos cursor — as transferable snapshot bytes
// (the EncodeSnapshot format). It works on any chain terminating in a
// learned emulator, journaled or not; non-snapshottable chains
// (oracle, manual, d2c native state) return an error. The export is
// taken under the emulator's invoke mutex, so it is a consistent
// point-in-time cut. A wrapper the pool has already evicted answers
// ErrSpilled.
func ExportBackend(b cloudapi.Backend) ([]byte, error) {
	if sb, ok := b.(*sessionBackend); ok {
		// Take the journal mutex too: a call that has been journaled
		// but not yet executed must not fall between the cut and the
		// transfer.
		sb.mu.Lock()
		defer sb.mu.Unlock()
		if sb.spilled {
			// The session may have been rehydrated and moved on since.
			return nil, ErrSpilled
		}
	}
	emu, chaos := capture(b)
	if emu == nil {
		return nil, fmt.Errorf("durable: backend is not snapshottable (no learned emulator in the chain)")
	}
	st := &SessionState{World: emu.ExportState()}
	if chaos != nil {
		c := chaos.Cursor()
		st.Chaos = &c
	}
	return EncodeSnapshot(st), nil
}

// RestoreBackend replaces a live backend chain's session state with
// exported snapshot bytes — the rehydrate step of a migration. When
// the chain is a journaled session wrapper (the receiving node runs a
// durable tier), the restored state is immediately checkpointed into a
// fresh segment (a forced compaction): the wrapper's journal predates
// the import, so without the checkpoint a crash would replay stale
// records over a world they never produced. A wrapper the pool has
// already evicted refuses the import with ErrSpilled.
func RestoreBackend(b cloudapi.Backend, data []byte) error {
	st, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	if sb, ok := b.(*sessionBackend); ok {
		sb.mu.Lock()
		defer sb.mu.Unlock()
		if sb.spilled {
			return ErrSpilled
		}
		if err := sb.emu.RestoreState(st.World); err != nil {
			return err
		}
		if st.Chaos != nil && sb.chaos != nil {
			sb.chaos.Restore(*st.Chaos)
		}
		sb.clean = false
		if sb.jr == nil {
			return nil
		}
		if _, _, err := sb.checkpointLocked(true); err != nil {
			return fmt.Errorf("durable: imported state not checkpointed: %w", err)
		}
		return nil
	}
	emu, chaos := capture(b)
	if emu == nil {
		return fmt.Errorf("durable: backend is not snapshottable (no learned emulator in the chain)")
	}
	if err := emu.RestoreState(st.World); err != nil {
		return err
	}
	if st.Chaos != nil && chaos != nil {
		chaos.Restore(*st.Chaos)
	}
	return nil
}
