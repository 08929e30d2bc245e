package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// fileKind classifies the engine's files by name.
type fileKind int

const (
	kindPage   fileKind = iota // the B+-tree page file (*.idx)
	kindWAL                    // write-ahead-log segments (*.wal.NNNNNN)
	kindSide                   // checkpoint side files, manifest, temp files
	kindTxnLog                 // the sharded router's decision log (txn.log)
	kindDir                    // directory fsyncs after a file is created or renamed
	numKinds
)

func kindOf(name string) fileKind {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "txn.log"):
		return kindTxnLog
	case strings.Contains(base, ".wal"):
		return kindWAL
	case strings.HasSuffix(base, ".idx"):
		return kindPage
	}
	return kindSide
}

// Span names and layers of device calls, per file kind. Page-file reads
// and writes are the buffer pool's misses and write-backs, so they belong
// to the btree/buffer layer; logs and side files to the store layer.
var kindSpans = [numKinds]struct{ layer, read, write, sync string }{
	kindPage:   {"btree", "btree.page_read", "btree.page_write", "btree.page_sync"},
	kindWAL:    {"store", "store.wal_read", "store.wal_write", "store.wal_sync"},
	kindSide:   {"store", "store.side_read", "store.side_write", "store.side_sync"},
	kindTxnLog: {"store", "store.txnlog_read", "store.txnlog_write", "store.txnlog_sync"},
	kindDir:    {"store", "", "", "store.dir_sync"},
}

// ioCounts are one file kind's device calls since the counters were made.
type ioCounts struct {
	reads, readBytes, readNs    atomic.Int64
	writes, writeBytes, writeNs atomic.Int64
	syncs, syncNs               atomic.Int64
}

// ioSnap is a plain copy of ioCounts, for deltas.
type ioSnap struct {
	reads, readBytes, readNs    int64
	writes, writeBytes, writeNs int64
	syncs, syncNs               int64
}

func (s ioSnap) sub(o ioSnap) ioSnap {
	return ioSnap{s.reads - o.reads, s.readBytes - o.readBytes, s.readNs - o.readNs,
		s.writes - o.writes, s.writeBytes - o.writeBytes, s.writeNs - o.writeNs,
		s.syncs - o.syncs, s.syncNs - o.syncNs}
}

// countFS is a store.VFS over the operating system's filesystem that
// counts and times every read, write and sync by file kind, and records
// each as a span. It is passed to the engine through Options.FS, so the
// device layer is measured from outside the program.
type countFS struct {
	store.OSFS
	tr *tracer
	by [numKinds]ioCounts
}

func newCountFS(tr *tracer) *countFS { return &countFS{tr: tr} }

// snap returns the counters of one kind.
func (c *countFS) snap(k fileKind) ioSnap {
	if c == nil {
		return ioSnap{}
	}
	b := &c.by[k]
	return ioSnap{b.reads.Load(), b.readBytes.Load(), b.readNs.Load(),
		b.writes.Load(), b.writeBytes.Load(), b.writeNs.Load(), b.syncs.Load(), b.syncNs.Load()}
}

// total returns the counters summed over every kind.
func (c *countFS) total() ioSnap {
	var t ioSnap
	for k := fileKind(0); k < numKinds; k++ {
		s := c.snap(k)
		t = ioSnap{t.reads + s.reads, t.readBytes + s.readBytes, t.readNs + s.readNs,
			t.writes + s.writes, t.writeBytes + s.writeBytes, t.writeNs + s.writeNs,
			t.syncs + s.syncs, t.syncNs + s.syncNs}
	}
	return t
}

// OpenFile implements store.VFS. Creating a file fsyncs its directory
// inside store.OSFS, so a create is timed whole and counted as one
// directory sync.
func (c *countFS) OpenFile(name string) (store.VFile, error) {
	_, statErr := os.Stat(name)
	start := time.Now()
	f, err := c.OSFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	if os.IsNotExist(statErr) {
		c.dirSync(start)
	}
	return &countFile{VFile: f, fs: c, kind: kindOf(name)}, nil
}

// Rename implements store.VFS. store.OSFS fsyncs the directory after the
// rename; the call is timed whole and counted as one directory sync.
func (c *countFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := c.OSFS.Rename(oldname, newname)
	c.dirSync(start)
	return err
}

func (c *countFS) dirSync(start time.Time) {
	d := time.Since(start)
	b := &c.by[kindDir]
	b.syncs.Add(1)
	b.syncNs.Add(d.Nanoseconds())
	c.record(kindDir, kindSpans[kindDir].sync, start, d)
}

func (c *countFS) record(k fileKind, name string, start time.Time, d time.Duration) {
	parent := c.tr.cur.Load()
	c.tr.add(c.tr.id(), parent, parent, kindSpans[k].layer, name, start, d)
}

type countFile struct {
	store.VFile
	fs   *countFS
	kind fileKind
}

func (f *countFile) record(name string, start time.Time, d time.Duration) {
	f.fs.record(f.kind, name, start, d)
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.VFile.ReadAt(p, off)
	d := time.Since(start)
	c := &f.fs.by[f.kind]
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
	c.readNs.Add(d.Nanoseconds())
	f.record(kindSpans[f.kind].read, start, d)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.VFile.WriteAt(p, off)
	d := time.Since(start)
	c := &f.fs.by[f.kind]
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
	c.writeNs.Add(d.Nanoseconds())
	f.record(kindSpans[f.kind].write, start, d)
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.VFile.Sync()
	d := time.Since(start)
	c := &f.fs.by[f.kind]
	c.syncs.Add(1)
	c.syncNs.Add(d.Nanoseconds())
	f.record(kindSpans[f.kind].sync, start, d)
	return err
}
