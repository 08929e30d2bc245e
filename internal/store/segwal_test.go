package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"testing"
)

// segAppendCommit appends one record and commits it.
func segAppendCommit(t *testing.T, w *SegmentedWAL, payload []byte) {
	t.Helper()
	tok, err := w.Append(payload)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Commit(tok); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// frameWAL returns payloads in the log's on-disk framing, written out
// independently of Append so tests can plant files byte for byte.
func frameWAL(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		var h [8]byte
		binary.BigEndian.PutUint32(h[:], uint32(len(p)))
		binary.BigEndian.PutUint32(h[4:], crc32.Checksum(p, walCRC))
		out = append(append(out, h[:]...), p...)
	}
	return out
}

// writeSynced creates (or overwrites from offset 0) name with data and
// makes it durable.
func writeSynced(t testing.TB, fs VFS, name string, data []byte) {
	t.Helper()
	f, err := fs.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(data) > 0 {
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// testAppendReplay appends 20 records of growing size under every sync
// policy with the given roll threshold, hands the open log to check, and
// verifies a reopen replays every record in order.
func testAppendReplay(t *testing.T, rollSize int64, check func(t *testing.T, w *SegmentedWAL)) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncGrouped, WALSyncNone} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			fs := NewCrashFS()
			w, recs, err := OpenSegmentedWAL(fs, "log", policy, rollSize)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("fresh wal holds %d records", len(recs))
			}
			var want [][]byte
			for i := 0; i < 20; i++ {
				payload := bytes.Repeat([]byte{byte(i + 1)}, i*7+1)
				want = append(want, payload)
				segAppendCommit(t, w, payload)
			}
			check(t, w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			_, got, err := OpenSegmentedWAL(fs, "log", policy, rollSize)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("reopened wal holds %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestWALAppendReplay runs at the default roll threshold, which the
// records never reach: one segment, never sealed.
func TestWALAppendReplay(t *testing.T) {
	testAppendReplay(t, 0, func(t *testing.T, w *SegmentedWAL) {
		if segs := w.Segments(); len(segs) != 1 {
			t.Fatalf("segments = %v, want one active segment", segs)
		}
		if sealed, _ := w.SegmentStats(); sealed != 0 {
			t.Fatalf("sealed %d segments below the roll threshold", sealed)
		}
	})
}

func TestSegWALAppendReplayAcrossRolls(t *testing.T) {
	// Tiny threshold: 20 records of 8..141 bytes force many rolls.
	testAppendReplay(t, 64, func(t *testing.T, w *SegmentedWAL) {
		if segs := w.Segments(); len(segs) < 3 {
			t.Fatalf("expected several segments, got %v", segs)
		}
		sealed, removed := w.SegmentStats()
		if sealed < 2 || removed != 0 {
			t.Fatalf("SegmentStats = (%d, %d), want (>=2, 0)", sealed, removed)
		}
	})
}

func TestSegWALMigratesLegacySingleFile(t *testing.T) {
	fs := NewCrashFS()
	// The pre-segmentation format: the same framing in one unnumbered file.
	writeSynced(t, fs, "log", frameWAL([]byte("alpha"), []byte("beta")))

	w, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "alpha" || string(recs[1]) != "beta" {
		t.Fatalf("migrated records %q, want [alpha beta]", recs)
	}
	if ok, _ := fs.Exists("log"); ok {
		t.Fatal("legacy file survived migration")
	}
	if ok, _ := fs.Exists(SegmentWALName("log", 1)); !ok {
		t.Fatal("segment 000001 missing after migration")
	}
	// The migrated log keeps appending where the legacy one left off.
	segAppendCommit(t, w, []byte("gamma"))
	w.Close()
	_, recs, err = OpenSegmentedWAL(fs, "log", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[2]) != "gamma" {
		t.Fatalf("post-migration records %q", recs)
	}
}

func TestSegWALRefusesMixedGenerations(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, []byte("seg-era"))
	w.Close()
	// Plant a legacy-named file next to the segments.
	f, _ := fs.OpenFile("log")
	f.Sync()
	f.Close()
	if _, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 64); err == nil {
		t.Fatal("open accepted a directory with both generations")
	}
}

func TestSegWALDropThrough(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{byte(i + 1)}, 40))
	}
	mark := w.Mark()
	var tail [][]byte
	for i := 0; i < 3; i++ {
		p := bytes.Repeat([]byte{byte(0xA0 + i)}, 40)
		tail = append(tail, p)
		segAppendCommit(t, w, p)
	}
	removedBytes, segs, err := w.DropThrough(mark)
	if err != nil {
		t.Fatal(err)
	}
	if segs == 0 || removedBytes == 0 {
		t.Fatalf("DropThrough removed (%d bytes, %d segments), want > 0", removedBytes, segs)
	}
	if _, removed := w.SegmentStats(); removed != uint64(segs) {
		t.Fatalf("SegmentsRemoved = %d, want %d", removed, segs)
	}
	// Dropping the same mark again is a no-op: the covered segments are
	// already gone.
	if _, n, err := w.DropThrough(mark); err != nil || n != 0 {
		t.Fatalf("second DropThrough = (%d, %v), want (0, nil)", n, err)
	}
	w.Close()

	// Reopen: records not covered by the mark survive, in order. The drop
	// may retain records before the mark (partially covered segment) but
	// must never lose one after it.
	_, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < len(tail) {
		t.Fatalf("recovered %d records, want >= %d", len(recs), len(tail))
	}
	got := recs[len(recs)-len(tail):]
	for i := range tail {
		if !bytes.Equal(got[i], tail[i]) {
			t.Fatalf("tail record %d = %v, want %v", i, got[i], tail[i])
		}
	}
}

func TestSegWALTornTailOnlyInFinalSegment(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40)) // fills segment 1
	segAppendCommit(t, w, bytes.Repeat([]byte{2}, 40)) // rolls, lands in 2
	w.Close()

	// A torn tail in the final segment is truncated on open.
	last := SegmentWALName("log", 2)
	f, _ := fs.OpenFile(last)
	size, _ := f.Size()
	f.WriteAt([]byte{9, 9, 9}, size)
	f.Sync()
	f.Close()
	w2, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	w2.Close()

	// The same garbage inside a sealed (non-final) segment is corruption.
	first := SegmentWALName("log", 1)
	f, _ = fs.OpenFile(first)
	size, _ = f.Size()
	f.WriteAt([]byte{9, 9, 9}, size)
	f.Sync()
	f.Close()
	if _, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32); err == nil {
		t.Fatal("open accepted an invalid tail in a sealed segment")
	}
}

func TestWALTornTailDropped(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, []byte("alpha"))
	segAppendCommit(t, w, []byte("beta"))

	// Tear the third append mid-write: the record's prefix lands in the
	// file without its full payload/CRC.
	fs.SetFailAfter(0)
	if _, err := w.Append([]byte("gamma-torn-record")); err == nil {
		t.Fatal("append survived injected tear")
	}
	fs.Reboot(true) // keep the torn bytes: the checksum must reject them

	_, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "alpha" || string(recs[1]) != "beta" {
		t.Fatalf("recovered %q, want [alpha beta]", recs)
	}
}

// TestWALCorruptTailTruncatedOnOpen flips a payload byte of the final
// segment's last record: the CRC rejects it, and open cuts the file back
// to the valid prefix so appends extend a clean log.
func TestWALCorruptTailTruncatedOnOpen(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40)) // fills segment 1
	segAppendCommit(t, w, []byte("keep"))              // rolls, lands in 2
	segAppendCommit(t, w, []byte("corrupt-me"))
	w.Close()

	last := SegmentWALName("log", 2)
	f, _ := fs.OpenFile(last)
	keep := int64(len(frameWAL([]byte("keep"))))
	if _, err := f.WriteAt([]byte{0xFF}, keep+9); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[1]) != "keep" {
		t.Fatalf("recovered %q, want [<40 bytes> keep]", recs)
	}
	f2, _ := fs.OpenFile(last)
	if got, _ := f2.Size(); got != keep {
		t.Fatalf("final segment size %d after truncation, want %d", got, keep)
	}
	segAppendCommit(t, w2, []byte("next"))
	w2.Close()
	_, recs, err = OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[2]) != "next" {
		t.Fatalf("post-truncation records %q, want [<40 bytes> keep next]", recs)
	}
}

func TestWALZeroFilledTailDropped(t *testing.T) {
	// A crashed filesystem often extends a file with zeros before the data
	// reaches disk. An all-zero header must read as tail garbage — not as
	// an endless run of valid empty records (CRC-32C of "" is 0).
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, []byte("real"))
	w.Close()
	name := SegmentWALName("log", 1)
	f, _ := fs.OpenFile(name)
	size, _ := f.Size()
	if _, err := f.WriteAt(make([]byte, 64), size); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "real" {
		t.Fatalf("recovered %q, want [real]", recs)
	}
	f2, _ := fs.OpenFile(name)
	if got, _ := f2.Size(); got != size {
		t.Fatalf("zero tail not truncated: size %d, want %d", got, size)
	}
	// And the source of such records is rejected at the door.
	if _, err := w2.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

// TestWALTruncateSatisfiesCommits: a record whose segment a checkpoint
// rolled and dropped counts as committed, and only the records appended
// after the roll survive a reopen.
func TestWALTruncateSatisfiesCommits(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncNone} {
		fs := NewCrashFS()
		w, _, err := OpenSegmentedWAL(fs, "log", policy, 0)
		if err != nil {
			t.Fatal(err)
		}
		tok, err := w.Append([]byte("will-be-checkpointed"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Roll(); err != nil {
			t.Fatal(err)
		}
		if _, segs, err := w.DropThrough(w.Mark()); err != nil || segs != 1 {
			t.Fatalf("policy %v: DropThrough after Roll = (%d segments, %v), want (1, nil)", policy, segs, err)
		}
		if err := w.Commit(tok); err != nil {
			t.Fatalf("policy %v: commit after drop: %v", policy, err)
		}
		segAppendCommit(t, w, []byte("next-era"))
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, recs, err := OpenSegmentedWAL(fs, "log", policy, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || string(recs[0]) != "next-era" {
			t.Fatalf("policy %v: recovered %q, want [next-era]", policy, recs)
		}
	}
}

func TestWALPoisonedAfterSyncFailure(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, []byte("ok"))
	fs.SetFailAfter(1) // the append's write succeeds, its fsync fails
	tok, err := w.Append([]byte("doomed"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Commit(tok); err == nil {
		t.Fatal("commit survived failed fsync")
	}
	// Poisoned: later appends, commits and rolls must keep failing.
	fs.Reboot(true)
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted on poisoned wal")
	}
	if err := w.Commit(tok); err == nil {
		t.Fatal("commit accepted on poisoned wal")
	}
	if err := w.Roll(); err == nil {
		t.Fatal("roll accepted on poisoned wal")
	}
}

func TestSegWALSealedSegmentsSurvivePessimisticReboot(t *testing.T) {
	// Sealing fsyncs under every policy — even WALSyncNone — so records in
	// sealed segments must survive a power cut that drops all unsynced
	// writes, without any Commit ever having been called.
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncNone, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Append(bytes.Repeat([]byte{byte(i + 1)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	fs.CutPower()
	fs.Reboot(false)
	_, recs, err := OpenSegmentedWAL(fs, "log", WALSyncNone, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Records 0..2 were sealed by the rolls records 1..3 triggered; only
	// the final record lived solely in the unsynced active segment.
	if len(recs) < 3 {
		t.Fatalf("recovered %d records, want >= 3 (sealed segments lost)", len(recs))
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(recs[i], bytes.Repeat([]byte{byte(i + 1)}, 40)) {
			t.Fatalf("sealed record %d corrupted", i)
		}
	}
}

func TestSegWALValidationFailuresPoison(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted after a refused record")
	}

	w2, _, err := OpenSegmentedWAL(fs, "log2", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Append(make([]byte, walMaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := w2.Append([]byte("after")); err == nil {
		t.Fatal("append accepted after a refused oversized record")
	}

	w3, _, err := OpenSegmentedWAL(fs, "log3", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	w3.Poison(fmt.Errorf("owner could not marshal a record"))
	if _, err := w3.Append([]byte("x")); err == nil {
		t.Fatal("append accepted on explicitly poisoned wal")
	}
}

// TestWALValidationFailuresPoison runs the same refusals on a log that
// never rolls. Owners apply state before logging, so a record the log
// refuses is a hole: the log must go fail-stop, not shrug and take later
// records.
func TestWALValidationFailuresPoison(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(make([]byte, walMaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted after a refused record")
	}

	w2, _, err := OpenSegmentedWAL(fs, "log2", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.Poison(fmt.Errorf("owner could not marshal a record"))
	if _, err := w2.Append([]byte("x")); err == nil {
		t.Fatal("append accepted on explicitly poisoned wal")
	}
}

// testGroupCommitConcurrent runs 8 committers × 25 records against one log
// with the given roll threshold under both syncing policies, then checks
// every acknowledged record replays.
func testGroupCommitConcurrent(t *testing.T, rollSize int64) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncGrouped} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			fs := NewCrashFS()
			w, _, err := OpenSegmentedWAL(fs, "log", policy, rollSize)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines, per = 8, 25
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tok, err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i)))
						if err == nil {
							err = w.Commit(tok)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			appends, syncs := w.Stats()
			if appends != goroutines*per {
				t.Fatalf("appends = %d, want %d", appends, goroutines*per)
			}
			if syncs == 0 {
				t.Fatal("no syncs recorded")
			}
			w.Close()
			_, recs, err := OpenSegmentedWAL(fs, "log", policy, rollSize)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != goroutines*per {
				t.Fatalf("recovered %d records, want %d", len(recs), goroutines*per)
			}
		})
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) { testGroupCommitConcurrent(t, 0) }

// TestSegWALGroupCommitConcurrentAcrossRolls uses a small threshold: the
// 200 appends roll the log dozens of times while group-commit leaders are
// in flight.
func TestSegWALGroupCommitConcurrentAcrossRolls(t *testing.T) { testGroupCommitConcurrent(t, 128) }

func TestSegWALExistsAndRemove(t *testing.T) {
	fs := NewCrashFS()
	if ok, err := SegmentedWALExists(fs, "log"); err != nil || ok {
		t.Fatalf("exists on empty fs = (%v, %v)", ok, err)
	}
	// Legacy generation counts.
	writeSynced(t, fs, "log", frameWAL([]byte("x")))
	if ok, _ := SegmentedWALExists(fs, "log"); !ok {
		t.Fatal("legacy file not detected")
	}
	if err := RemoveSegmentedWAL(fs, "log"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := SegmentedWALExists(fs, "log"); ok {
		t.Fatal("legacy file survived removal")
	}
	// Segment generation counts.
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40))
	}
	w.Close()
	if ok, _ := SegmentedWALExists(fs, "log"); !ok {
		t.Fatal("segments not detected")
	}
	if err := RemoveSegmentedWAL(fs, "log"); err != nil {
		t.Fatal(err)
	}
	idxs, err := ListWALSegments(fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 0 {
		t.Fatalf("segments %v survived removal", idxs)
	}
}

func TestSegWALSizeCountsRetainedBytes(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40))
	}
	before := w.Size()
	if before != 5*48 { // 8-byte frame header + 40-byte payload each
		t.Fatalf("Size = %d, want %d", before, 5*48)
	}
	if _, _, err := w.DropThrough(w.Mark()); err != nil {
		t.Fatal(err)
	}
	after := w.Size()
	if after >= before {
		t.Fatalf("Size did not shrink: %d -> %d", before, after)
	}
	if w.BytesAppended() != uint64(before) {
		t.Fatalf("BytesAppended = %d, want %d (removal must not reset it)", w.BytesAppended(), before)
	}
}

// FuzzSegmentedWALOpen feeds arbitrary bytes to segment scanning, once as
// the final (active) segment and once as a sealed segment followed by a
// valid final one. Open must never panic. As the final segment, the
// returned records must re-frame to exactly the prefix open kept on disk,
// and a second open must return the same records. As a sealed segment,
// the bytes are accepted only when every one of them frames.
func FuzzSegmentedWALOpen(f *testing.F) {
	valid := frameWAL([]byte("alpha"), []byte("beta"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xFF // CRC mismatch in the last record
	f.Add([]byte{})
	f.Add(valid)
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), valid...), 9, 9, 9))             // torn header
	f.Add(append(append([]byte(nil), valid...), make([]byte, 16)...)) // zero-filled tail
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})                 // absurd length
	f.Fuzz(func(t *testing.T, data []byte) {
		first := SegmentWALName("log", 1)

		fs := NewCrashFS()
		writeSynced(t, fs, first, data)
		w, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
		if err != nil {
			t.Fatalf("open of a final segment failed: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		kept := frameWAL(recs...)
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("records re-frame to %d bytes that are not a prefix of the segment", len(kept))
		}
		if got, _ := fs.ReadFile(first); !bytes.Equal(got, kept) {
			t.Fatalf("open left %d bytes in the segment, want the %d-byte valid prefix", len(got), len(kept))
		}
		_, again, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
		if err != nil || !slices.EqualFunc(again, recs, bytes.Equal) {
			t.Fatalf("second open = (%d records, %v), want the same %d records", len(again), err, len(recs))
		}

		fs = NewCrashFS()
		writeSynced(t, fs, first, data)
		writeSynced(t, fs, SegmentWALName("log", 2), frameWAL([]byte("last")))
		w, sealedRecs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
		if len(kept) < len(data) {
			if err == nil {
				t.Fatal("open accepted a sealed segment with an invalid tail")
			}
			return
		}
		if err != nil {
			t.Fatalf("open refused a fully valid sealed segment: %v", err)
		}
		w.Close()
		if want := append(recs, []byte("last")); !slices.EqualFunc(sealedRecs, want, bytes.Equal) {
			t.Fatalf("sealed open returned %d records, want %d", len(sealedRecs), len(want))
		}
	})
}
