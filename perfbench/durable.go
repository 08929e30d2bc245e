package main

import (
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/motion"
	"repro/internal/workload"
	"repro/peb"
	"repro/peb/cq"
)

// durable-mixed: 10k users, every commit fsynced (DurabilitySync), an
// automatic checkpoint every 400 log records, and a buffer that holds the
// whole index. 100 standing queries from Dataset.Geofences (80 range
// fences, 20 PkNN) watch the commits. One writer sends Sec. 7.9 updates
// open-loop at a fixed rate well below commit capacity, each timed from
// when it was due; every fifth is an 8-user batch. One closed-loop client
// alternates PRQ and PkNN.
//
// Every checkpoint rewrites and fsyncs the whole policy store and holds
// the write lock across a directory fsync; on a slow disk each one stalls
// commits for 0.1 s or more, and at 50 policies per user for seconds. Two
// policies per user and one checkpoint every four seconds keep the stalls
// to a minority of the one-second windows tail latencies are taken over,
// so the figures repeat; the per-layer checkpoint metrics report them.
const (
	durableUsers      = 10000
	durableRate       = 100 // writes per second
	durableBatchEvery = 5   // every fifth write is an 8-user batch
	durableSetups     = 5
	durablePolicies   = 2
	durableQueryTime  = 90.0
	durableCkptEvery  = 400 // log records between automatic checkpoints: one every 4 s
	durableFences     = 100
	durableKNNFences  = 20
	durableFenceSide  = 100.0
	durableUpdateStep = 0.4 // simulated time between 1% update rounds
)

// standing holds one set-up's continuous-query engine and the goroutines
// draining its subscriptions.
type standing struct {
	eng *cq.Engine
	wg  sync.WaitGroup
}

func (s *standing) close() {
	s.eng.Close()
	s.wg.Wait()
}

// subscribe registers the geofences as standing queries.
func subscribe(db *peb.DB, fences []workload.Geofence) (*standing, error) {
	eng, err := cq.Attach(db)
	if err != nil {
		return nil, err
	}
	s := &standing{eng: eng}
	for i, g := range fences {
		var sub *cq.Subscription
		if i < durableKNNFences {
			sub, _, err = eng.SubscribePkNN(g.Issuer, (g.MinX+g.MaxX)/2, (g.MinY+g.MaxY)/2, knnK, durableQueryTime, cq.SubOptions{})
		} else {
			sub, _, err = eng.SubscribeRange(g.Issuer, peb.Region{MinX: g.MinX, MinY: g.MinY, MaxX: g.MaxX, MaxY: g.MaxY},
				durableQueryTime, cq.SubOptions{})
		}
		if err != nil {
			s.close()
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for range sub.Deltas() {
			}
		}()
	}
	return s, nil
}

func runDurableMixed(p *pass) error {
	ds, err := p.dataset(durableUsers, durablePolicies)
	if err != nil {
		return err
	}
	prq := ds.GenPRQueries(poolCount, windowSide, durableQueryTime)
	knn := ds.GenKNNQueries(poolCount, knnK, durableQueryTime)
	fences := ds.Geofences(durableFences, durableFenceSide)
	initial := clone(ds.Objects)
	var stream []motion.Object
	slots := int(durableRate*p.dur.Seconds()) + 1
	for now := 60.0; len(stream) < slots*batchSize/durableBatchEvery+slots; now += durableUpdateStep {
		stream = append(stream, ds.UpdateBatch(0.01, now)...)
	}
	pol, err := savedPolicies(ds)
	if err != nil {
		return err
	}
	or := newOracle(ds.Policies, initial, 1)

	// Commit hooks bracketing the CQ engine's: the first fires once the
	// commit is applied and republished, the second once the engine
	// evaluated it. Registered only when traced.
	var hookA, hookB atomic.Int64
	var (
		db   *peb.DB
		cqs  *standing
		opts peb.Options
	)
	dbDir, err := p.setUp(durableSetups, func(dir string, first bool) (setupTimes, pageCounts, func() error, error) {
		opts = peb.Options{
			Path:           filepath.Join(dir, "db.idx"),
			Durability:     peb.DurabilitySync,
			BufferPages:    len(initial)/16 + 256,
			AutoCheckpoint: peb.AutoCheckpointPolicy{WALRecords: durableCkptEvery},
		}
		d, st, err := p.openSingle(opts, pol, initial)
		if err != nil {
			return st, pageCounts{}, nil, err
		}
		start := time.Now()
		if p.tr != nil {
			d.AddCommitHook(func(peb.CommitInfo, *peb.CommitView) { hookA.Store(time.Now().UnixNano()) })
		}
		var s *standing
		err = p.tr.timed("cq", "cq.subscribe", func() (err error) {
			s, err = subscribe(d, fences)
			return err
		})
		if err != nil {
			d.Close()
			return st, pageCounts{}, nil, err
		}
		if p.tr != nil {
			d.AddCommitHook(func(peb.CommitInfo, *peb.CommitView) { hookB.Store(time.Now().UnixNano()) })
		}
		st.ready = time.Since(start)
		teardown := func() error {
			s.close()
			return d.Close()
		}
		pc, err := p.pagePass(d, prq, knn, or, first)
		if err != nil {
			teardown()
			return st, pc, nil, err
		}
		db, cqs = d, s
		return st, pc, teardown, nil
	})
	if err != nil {
		return err
	}
	if p.tr != nil {
		spatial, err := p.spatialPages(ds, initial, prq)
		if err != nil {
			return err
		}
		p.layer["spatialidx.pages_per_prq"] = spatial
		p.grantorsPerIssuer(ds, prq)
	}

	// Measured window: the open-loop writer and the closed-loop query
	// client run concurrently until it ends.
	qc := &queryClient{db: db, or: or, tr: p.tr, layer: "core", prq: prq, knn: knn}
	qc.warm(poolCount)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	wal0, ck0, cq0, swaps0, io0 := db.WALStats(), db.CheckpointStats(), cqs.eng.Stats(), db.ViewSwaps(), db.QueryIOStats()
	dev0, walDev0, pageDev0 := p.fs.total(), p.fs.snap(kindWAL), p.fs.snap(kindPage)
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(p.dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			qc.step()
		}
	}()
	wr := writer{p: p, db: db, log: or.writers[0], stream: stream, hookA: &hookA, hookB: &hookB}
	wr.run(start, deadline)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	wal1, ck1, cq1, swaps1, io1 := db.WALStats(), db.CheckpointStats(), cqs.eng.Stats(), db.ViewSwaps(), db.QueryIOStats()
	dev, walDev, pageDev := p.fs.total().sub(dev0), p.fs.snap(kindWAL).sub(walDev0), p.fs.snap(kindPage).sub(pageDev0)
	p.tr.gcSpans(start)

	or.index()
	qc.verify()
	p.tally.merge(&wr.tally)
	p.recordQueries(elapsed, qc)
	p.memWindow(&ms0, &ms1, qc.n)
	p.recordWrites(&wr.commit, &wr.txn, elapsed)
	p.layer["bench.generator_late_ms"] = wr.late.mean() / 1e3
	p.layer["store.hit_ratio"] = ratio(float64(io1.Hits-io0.Hits), float64(io1.Accesses()-io0.Accesses()))
	p.layer["store.read_calls_per_query"] = ratio(float64(pageDev.reads), float64(qc.n))
	p.layer["store.read_us_per_query"] = ratio(float64(pageDev.readNs)/1e3, float64(qc.n))
	commits := float64(wr.commit.n() + wr.txn.n())
	p.recordCommitPath(commits, wal1.Appends-wal0.Appends, wal1.Syncs-wal0.Syncs, wal1.BytesAppended-wal0.BytesAppended, dev, walDev)
	p.recordCheckpoints(ck0, ck1)
	p.layer["peb.view_swaps_per_commit"] = ratio(float64(swaps1-swaps0), commits)
	p.layer["peb.commit_apply_us"] = wr.apply.mean()
	p.layer["cq.eval_us_per_commit"] = wr.eval.mean()
	cqCommits := float64(cq1.Commits - cq0.Commits)
	p.layer["cq.evaluated_per_commit"] = ratio(float64(cq1.Evaluated-cq0.Evaluated), cqCommits)
	p.layer["cq.pruned_ratio"] = ratio(float64(cq1.Pruned-cq0.Pruned), float64(cq1.Pruned-cq0.Pruned+cq1.Evaluated-cq0.Evaluated))
	p.layer["cq.deltas_per_commit"] = ratio(float64(cq1.Deltas-cq0.Deltas), cqCommits)

	// Footprint after a final checkpoint, then a clean reopen: every
	// acknowledged update must read back.
	if err := db.Checkpoint(); err != nil {
		return err
	}
	size, err := dirBytes(dbDir)
	if err != nil {
		return err
	}
	p.e2e["disk_bytes_per_obj"] = ratio(float64(size), float64(db.Size()))
	cqs.close()
	if err := db.Close(); err != nil {
		return err
	}
	start = time.Now()
	var re *peb.DB
	err = p.tr.timed("peb", "peb.reopen", func() (err error) {
		re, err = peb.OpenExisting(opts)
		return err
	})
	p.layer["peb.reopen_ms"] = float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return err
	}
	defer re.Close()
	p.checkStates(re, or)
	return nil
}

// writer is durable-mixed's open-loop update client.
type writer struct {
	tally
	p            *pass
	db           *peb.DB
	log          *writerLog
	stream       []motion.Object
	hookA, hookB *atomic.Int64

	commit, txn       timings
	late, apply, eval latencies
}

// run sends one write every 1/durableRate seconds until deadline. A write
// that starts late still counts from when it was due.
func (w *writer) run(start, deadline time.Time) {
	tr := w.p.tr
	interval := time.Second / durableRate
	next := 0
	for slot := 0; ; slot++ {
		due := start.Add(time.Duration(slot) * interval)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		issue := time.Now()
		w.late.add(issue.Sub(due))
		id := tr.id()
		if slot%durableBatchEvery == durableBatchEvery-1 {
			objs := w.stream[next : next+batchSize]
			next += batchSize
			b := w.db.NewBatch()
			for _, o := range objs {
				b.Upsert(o)
			}
			n := w.log.send(objs...)
			err := w.db.Apply(b)
			done := time.Now()
			w.op(err)
			w.log.acked.Store(n)
			w.txn.add(done, done.Sub(due))
			tr.add(id, 0, 0, "peb", "peb.apply", issue, done.Sub(issue))
			continue
		}
		o := w.stream[next]
		next++
		n := w.log.send(o)
		err := w.db.Upsert(o)
		done := time.Now()
		w.op(err)
		w.log.acked.Store(n)
		w.commit.add(done, done.Sub(due))
		tr.add(id, 0, 0, "peb", "peb.upsert", issue, done.Sub(issue))
		if tr != nil {
			a, b := time.Unix(0, w.hookA.Load()), time.Unix(0, w.hookB.Load())
			w.apply.add(a.Sub(issue))
			w.eval.add(b.Sub(a))
			tr.add(tr.id(), id, id, "peb", "peb.commit_apply", issue, a.Sub(issue))
			tr.add(tr.id(), id, id, "cq", "cq.eval", a, b.Sub(a))
		}
	}
}

// recordCommitPath reports the write-ahead log's work per commit, from the
// engine's counters and from the device calls the VFS wrapper saw.
func (p *pass) recordCommitPath(commits float64, appends, syncs, walBytes uint64, dev, walDev ioSnap) {
	p.layer["store.wal_append_us"] = ratio(float64(walDev.writeNs)/1e3, float64(walDev.writes))
	p.layer["store.wal_fsync_us"] = ratio(float64(walDev.syncNs)/1e3, float64(walDev.syncs))
	p.layer["store.wal_records_per_fsync"] = ratio(float64(appends), float64(syncs))
	p.layer["store.wal_bytes_per_commit"] = ratio(float64(walBytes), commits)
	p.layer["store.fsyncs_per_commit"] = ratio(float64(syncs), commits)
	p.layer["store.write_bytes_per_commit"] = ratio(float64(dev.writeBytes), commits)
	p.layer["store.sync_calls_per_commit"] = ratio(float64(dev.syncs), commits)
}

// recordCheckpoints reports the checkpoints that committed in a window
// and their mean phase times and page counts.
func (p *pass) recordCheckpoints(a, b peb.CheckpointStats) {
	n := float64(b.Checkpoints - a.Checkpoints)
	p.layer["peb.checkpoints"] = n
	p.layer["peb.ckpt_cut_us"] = ratio(float64((b.TotalCut - a.TotalCut).Microseconds()), n)
	p.layer["peb.ckpt_build_ms"] = ratio(float64((b.TotalBuild-a.TotalBuild).Microseconds())/1e3, n)
	p.layer["peb.ckpt_publish_us"] = ratio(float64((b.TotalPublish - a.TotalPublish).Microseconds()), n)
	p.layer["peb.ckpt_pages_flushed"] = ratio(float64(b.PagesFlushed-a.PagesFlushed), n)
	p.layer["peb.ckpt_pages_reclaimed"] = ratio(float64(b.PagesReclaimed-a.PagesReclaimed), n)
}
