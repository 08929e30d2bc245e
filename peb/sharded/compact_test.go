package sharded

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/peb"
)

// crossShardBatch builds a batch guaranteed to span at least two shards
// (one upsert in each shard's first cell), forcing the 2PC path.
func crossShardBatch(t *testing.T, db *DB, rng *rand.Rand, uids []UserID, now float64) *Batch {
	t.Helper()
	side := db.shards[0].Bounds().MaxX
	b := db.NewBatch()
	placed := 0
	for _, uid := range uids {
		for tries := 0; tries < 64; tries++ {
			x, y := rng.Float64()*side, rng.Float64()*side
			if db.shardOf(x, y) == placed%db.Shards() {
				b.Upsert(Object{UID: uid, X: x, Y: y, T: now})
				placed++
				break
			}
		}
	}
	if placed < 2 {
		t.Fatal("failed to construct a cross-shard batch")
	}
	return b
}

// TestDecisionLogCompaction drives cross-shard transactions, checkpoints,
// and verifies the decision log collapses to its watermark record — and
// that transactions, recovery, and id monotonicity all survive the
// compaction.
func TestDecisionLogCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 3, Dir: dir, DB: peb.Options{Durability: peb.DurabilitySync}}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	uids := []UserID{1, 2, 3, 4}
	now := 1.0
	for i := 0; i < 8; i++ {
		now++
		if err := db.Apply(crossShardBatch(t, db, rng, uids, now)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := db.txnLog.Size()
	if sizeBefore == 0 {
		t.Fatal("no decisions logged; the batches did not take the 2PC path")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sizeAfter := db.txnLog.Size()
	if sizeAfter >= sizeBefore {
		t.Fatalf("decision log did not shrink: %d -> %d bytes", sizeBefore, sizeAfter)
	}
	// A second checkpoint with no new decisions must not touch the log.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.txnLog.Size(); got != sizeAfter {
		t.Fatalf("idle checkpoint rewrote the decision log: %d -> %d bytes", sizeAfter, got)
	}
	wantNext := db.nextTxn

	// Transactions keep working after compaction.
	now++
	if err := db.Apply(crossShardBatch(t, db, rng, uids, now)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the watermark must keep the id allocator monotonic, and the
	// data must be intact.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.nextTxn <= wantNext {
		t.Fatalf("transaction ids went backwards across compaction: reopened nextTxn %d, watermarked %d", db2.nextTxn, wantNext)
	}
	for _, uid := range uids {
		o, ok, err := db2.Lookup(uid)
		if err != nil || !ok {
			t.Fatalf("user %d lost after compaction+reopen: ok=%v err=%v", uid, ok, err)
		}
		if o.T != now {
			t.Fatalf("user %d stale after reopen: t=%g want %g", uid, o.T, now)
		}
	}
	now++
	if err := db2.Apply(crossShardBatch(t, db2, rng, uids, now)); err != nil {
		t.Fatal(err)
	}
}

// compactionCrashSetup opens a sharded DB on fs and commits three
// cross-shard batches over four users, one user per shard, so the
// decision log holds several verdicts for the next Checkpoint to compact.
// Single-shard updates then roll every shard's small log segments past
// the transaction records, so the Checkpoint drops them all and the
// decision log's watermark is the only surviving record of the largest
// id. It returns the open DB, each user's last acknowledged state, and
// the largest transaction id handed out.
func compactionCrashSetup(t *testing.T, fs store.VFS) (*DB, map[UserID]Object, uint64) {
	t.Helper()
	opts := crashShardedOpts(fs)
	opts.DB.WALSegmentBytes = 256
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	uids := []UserID{1, 2, 3, 4}
	for now := 1.0; now <= 3; now++ {
		if err := db.Apply(crossShardBatch(t, db, rng, uids, now)); err != nil {
			t.Fatal(err)
		}
	}
	for now := 4.0; now <= 12; now++ {
		for _, uid := range uids {
			o, _, err := db.Lookup(uid)
			if err != nil {
				t.Fatal(err)
			}
			o.T = now
			if err := db.Upsert(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	acked := make(map[UserID]Object, len(uids))
	for _, uid := range uids {
		o, ok, err := db.Lookup(uid)
		if err != nil || !ok {
			t.Fatalf("user %d missing before the checkpoint: ok=%v err=%v", uid, ok, err)
		}
		acked[uid] = o
	}
	if db.txnDecisions == 0 {
		t.Fatal("no decisions logged; the batches did not take the 2PC path")
	}
	return db, acked, db.nextTxn - 1
}

// TestDecisionLogCompactionCrash sweeps a fault point over every
// filesystem operation of a sharded Checkpoint that compacts a non-empty
// decision log: the shards' own checkpoints, then the log's roll (seal
// fsync), the watermark's append and fsync, and the removal of the sealed
// segments — the last point crashes after the removal. Under both reboot
// models, the reopened router must come up, keep transaction ids above
// every id handed out before the crash, serve every user's last
// acknowledged state, and commit a new cross-shard batch.
func TestDecisionLogCompactionCrash(t *testing.T) {
	golden := store.NewCrashFS()
	db, _, _ := compactionCrashSetup(t, golden)
	before := golden.Ops()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	total := golden.Ops() - before
	if segs := db.txnLog.Segments(); len(segs) != 1 || db.txnLog.Size() != 17 {
		t.Fatalf("golden compaction left segments %v holding %d bytes, want one 17-byte watermark", segs, db.txnLog.Size())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, keepUnsynced := range []bool{false, true} {
		for k := 0; k <= total; k++ {
			label := fmt.Sprintf("k=%d keep=%v", k, keepUnsynced)
			fs := store.NewCrashFS()
			db, acked, maxIssued := compactionCrashSetup(t, fs)
			fs.SetFailAfter(k)
			_ = db.Checkpoint() // fails at the fault point by design
			if !fs.Dead() {
				fs.CutPower()
			}
			_ = db.Close() // on the dead filesystem: releases handles only
			fs.Reboot(keepUnsynced)

			db, err := Open(db.opts)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			if db.nextTxn <= maxIssued {
				t.Fatalf("%s: nextTxn %d reuses an id handed out before the crash (max %d)", label, db.nextTxn, maxIssued)
			}
			for uid, want := range acked {
				got, ok, err := db.Lookup(uid)
				if err != nil || !ok || got != want {
					t.Fatalf("%s: user %d = %+v (ok=%v, err=%v), want acknowledged %+v", label, uid, got, ok, err, want)
				}
			}
			rng := rand.New(rand.NewSource(int64(k)))
			if err := db.Apply(crossShardBatch(t, db, rng, []UserID{1, 2, 3, 4}, 10)); err != nil {
				t.Fatalf("%s: cross-shard batch after recovery: %v", label, err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
		}
	}
}
