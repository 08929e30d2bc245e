package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/peb"
)

// paper-query: the paper's Table 1 setting. 20k uniform users with 50
// policies each (θ = 0.7) in a file-backed DB with durability off and the
// paper's 50-page LRU buffer, so the index is several times larger than
// the cache and misses are real reads. One closed-loop client alternates
// PRQ (window 200) and PkNN (k = 5). A second phase then sends Sec. 7.9
// position updates, one closed-loop client, no write-ahead log: nine
// single upserts, then one 8-user batch.
const (
	paperUsers      = 20000
	paperSetups     = 3 // each loads 1M policies; setup_s is their median
	paperQueryTime  = 60.0
	paperQueryShare = 0.7 // of the measured window; the rest is the update phase
	batchSize       = 8
	batchEvery      = 10 // every batchEvery-th write is an 8-user batch
)

func runPaperQuery(p *pass) error {
	ds, err := p.dataset(paperUsers, workload.DefaultPoliciesPerUser)
	if err != nil {
		return err
	}
	prq := ds.GenPRQueries(poolCount, windowSide, paperQueryTime)
	knn := ds.GenKNNQueries(poolCount, knnK, paperQueryTime)
	initial := clone(ds.Objects)
	updates := append(ds.UpdateBatch(1, 70), ds.UpdateBatch(1, 80)...)
	pol, err := savedPolicies(ds)
	if err != nil {
		return err
	}
	or := newOracle(ds.Policies, initial, 1)

	var db *peb.DB
	dbDir, err := p.setUp(paperSetups, func(dir string, first bool) (setupTimes, pageCounts, func() error, error) {
		// The buffer scales with the population, so a tiny self-test run
		// stays in the paper's regime of an index far larger than the cache.
		opts := peb.Options{Path: filepath.Join(dir, "db.idx"), BufferPages: p.scaled(store.DefaultBufferPages, 4)}
		d, st, err := p.openSingle(opts, pol, initial)
		if err != nil {
			return st, pageCounts{}, nil, err
		}
		pc, err := p.pagePass(d, prq, knn, or, first)
		if err != nil {
			d.Close()
			return st, pc, nil, err
		}
		db = d
		return st, pc, d.Close, nil
	})
	if err != nil {
		return err
	}
	defer db.Close()

	spatial, err := p.spatialPages(ds, initial, prq)
	if err != nil {
		return err
	}
	p.layer["spatialidx.pages_per_prq"] = spatial
	p.check(p.e2e["prq_pages"] <= spatial, "paper claim: PEB reads %.2f pages per PRQ, the spatial baseline %.2f",
		p.e2e["prq_pages"], spatial)

	// Query phase.
	qc := &queryClient{db: db, or: or, tr: p.tr, layer: "core", prq: prq, knn: knn, ownsDevice: true}
	if p.tr != nil {
		qc.replay = newReplayer(ds.Policies, prq, initial)
		p.grantorsPerIssuer(ds, prq)
	}
	// The oracle's copy of the policies would double the heap the
	// collector scans while the engine runs; it is reloaded to check.
	or.pol, ds.Policies = nil, nil
	qc.warm(poolCount)
	runtime.GC()
	window := time.Duration(float64(p.dur) * paperQueryShare)
	var ms0, ms1 runtime.MemStats
	io0, dev0 := db.QueryIOStats(), p.fs.snap(kindPage)
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < window {
		qc.step()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	io1, dev := db.QueryIOStats(), p.fs.snap(kindPage).sub(dev0)
	queryElapsed, queries := elapsed, float64(qc.n)
	p.memWindow(&ms0, &ms1, qc.n)
	p.layer["store.hit_ratio"] = ratio(float64(io1.Hits-io0.Hits), float64(io1.Accesses()-io0.Accesses()))
	p.layer["store.read_calls_per_query"] = ratio(float64(dev.reads), queries)
	p.layer["store.read_us_per_query"] = ratio(float64(dev.readNs)/1e3, queries)
	p.tr.gcSpans(start)

	// Update phase.
	w := or.writers[0]
	var hookAt atomic.Int64
	if p.tr != nil {
		defer db.AddCommitHook(func(peb.CommitInfo, *peb.CommitView) { hookAt.Store(time.Now().UnixNano()) })()
	}
	var commit, txn timings
	var applyUS latencies
	swaps0, wdev0 := db.ViewSwaps(), p.fs.total()
	next := 0
	take := func(n int) []motion.Object {
		out := make([]motion.Object, n)
		for i := range out {
			out[i] = updates[next%len(updates)]
			next++
		}
		return out
	}
	window = p.dur - window
	start = time.Now()
	writes := 0
	for ; time.Since(start) < window; writes++ {
		id := p.tr.id()
		p.tr.setCur(id)
		if writes%batchEvery == batchEvery-1 {
			objs := take(batchSize)
			b := db.NewBatch()
			for _, o := range objs {
				b.Upsert(o)
			}
			n := w.send(objs...)
			s := time.Now()
			err := db.Apply(b)
			d := time.Since(s)
			p.op(err)
			w.acked.Store(n)
			txn.add(time.Now(), d)
			p.tr.add(id, 0, 0, "peb", "peb.apply", s, d)
			continue
		}
		o := take(1)[0]
		n := w.send(o)
		s := time.Now()
		err := db.Upsert(o)
		d := time.Since(s)
		p.op(err)
		w.acked.Store(n)
		commit.add(time.Now(), d)
		p.tr.add(id, 0, 0, "peb", "peb.upsert", s, d)
		if p.tr != nil {
			at := time.Unix(0, hookAt.Load())
			applyUS.add(at.Sub(s))
			p.tr.add(p.tr.id(), id, id, "peb", "peb.commit_apply", s, at.Sub(s))
		}
	}
	elapsed = time.Since(start)
	p.tr.setCur(0)
	p.recordWrites(&commit, &txn, elapsed)
	p.layer["peb.commit_apply_us"] = applyUS.mean()
	p.layer["peb.view_swaps_per_commit"] = ratio(float64(db.ViewSwaps()-swaps0), float64(writes))
	p.recordCommitPath(float64(writes), 0, 0, 0, p.fs.total().sub(wdev0), ioSnap{})

	// The sampled queries' answers, and every user's stored state is the
	// last one written.
	if or.pol, err = policy.Load(bytes.NewReader(pol)); err != nil {
		return err
	}
	or.index()
	qc.verify()
	p.recordQueries(queryElapsed, qc)
	p.checkStates(db, or)
	size, err := dirBytes(dbDir)
	if err != nil {
		return err
	}
	p.e2e["disk_bytes_per_obj"] = ratio(float64(size), float64(db.Size()))
	return nil
}

// recordWrites reports single-object commit and batch latencies and the
// commit rate over the window.
func (p *pass) recordWrites(commit, txn *timings, window time.Duration) {
	p.e2e["commit_p50_us"] = commit.us.pct(0.5)
	p.layer["client.commit_tail_us"] = commit.tail()
	p.e2e["commit_per_s"] = float64(commit.n()) / window.Seconds()
	p.e2e["txn_p50_us"] = txn.us.pct(0.5)
	p.layer["client.txn_tail_us"] = txn.tail()
}

// lookuper is the point-read surface the final state checks use.
type lookuper interface {
	Lookup(uid peb.UserID) (peb.Object, bool, error)
}

// checkStates checks that every user reads back as the last state the
// benchmark wrote for it (no lost and no stale update), as one check.
func (p *pass) checkStates(db lookuper, or *oracle) {
	bad, first := 0, ""
	for i := range or.initial {
		uid := motion.UserID(i + 1)
		got, ok, err := db.Lookup(uid)
		if want := or.latest(uid); err != nil || !ok || got != want {
			if bad == 0 {
				first = fmt.Sprintf("u%d: got %+v (found %v, err %v), want %+v", uid, got, ok, err, want)
			}
			bad++
		}
	}
	p.check(bad == 0, "%d users read back wrong, first %s", bad, first)
}
