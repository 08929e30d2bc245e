package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/workload"
	"repro/peb"
	"repro/peb/sharded"
)

// sharded-skew: 2k users with 10 policies each on a sharded.DB of 4
// shards with a static topology (no AutoReshard: its absolute-rate
// thresholds make the converged layout depend on the machine), every
// commit fsynced, one replica per shard serving reads. Two closed-loop
// clients each send a mix: 7 in 10 ops are single-object upserts, 8 in 10
// of those to users kept in one hot Hilbert quarter; 1 in 10 is an 8-user
// batch whose members sit in all four quarters (two-phase commit plus a
// decision-log append); 2 in 10 are PRQ/PkNN spanning shards.
const (
	skewUsers      = 2000
	skewPolicies   = 10
	skewSetups     = 5
	skewShards     = 4
	skewClients    = 2
	skewQueryTime  = 90.0
	skewBatchShare = 0.1
	skewQueryShare = 0.2
	skewHotShare   = 0.8
	skewRounds     = 20 // update rounds generated per user
	skewGroupEvery = 40 // one 8-user batch group per this many users
	skewCheckEvery = 500 * time.Millisecond
	skewLagEvery   = 5 * time.Millisecond
	skewWarm       = 25 // queries of each type each client issues unmeasured
)

// skewPlan assigns every user its role: a member of a batch group (with
// the quarter it lives in) or a single-upsert user, hot or cold, and the
// client that owns its writes.
type skewPlan struct {
	half    float64
	hot     int // the hot quarter, the one the first shard owns
	groups  int // users 1..8*groups form the batch groups
	updates [][]motion.Object
}

func (pl *skewPlan) group(uid motion.UserID) (g, member int, ok bool) {
	if i := int(uid) - 1; i < pl.groups*batchSize {
		return i / batchSize, i % batchSize, true
	}
	return 0, 0, false
}

func (pl *skewPlan) isHot(uid motion.UserID) bool { return uid%4 == 0 }

func (pl *skewPlan) owner(uid motion.UserID) int {
	if g, _, ok := pl.group(uid); ok {
		return g % skewClients
	}
	return int(uid/4) % skewClients
}

// fold moves a position into quarter q (q = qx + 2·qy) by wrapping it.
func (pl *skewPlan) fold(o motion.Object, q int) motion.Object {
	o.X = float64(q%2)*pl.half + math.Mod(o.X, pl.half)
	o.Y = float64(q/2)*pl.half + math.Mod(o.Y, pl.half)
	return o
}

func runShardedSkew(p *pass) error {
	ds, err := p.dataset(skewUsers, skewPolicies)
	if err != nil {
		return err
	}
	prq := ds.GenPRQueries(poolCount, windowSide, skewQueryTime)
	knn := ds.GenKNNQueries(poolCount, knnK, skewQueryTime)
	cfg := bxtree.DefaultConfig()
	pl := &skewPlan{half: ds.Cfg.Space / 2, groups: len(ds.Objects) / skewGroupEvery}
	quarter := uint64(1) << (2*cfg.Grid.Order - 2)
	for q := 0; q < 4; q++ {
		if cfg.Grid.HilbertValue(float64(q%2)*pl.half+pl.half/2, float64(q/2)*pl.half+pl.half/2) < quarter {
			pl.hot = q
		}
	}
	initial := clone(ds.Objects)
	for i := range initial {
		uid := initial[i].UID
		if _, m, ok := pl.group(uid); ok {
			initial[i] = pl.fold(initial[i], m%4)
			initial[i].T = 60 // a group's members always share their last batch's time
		} else if pl.isHot(uid) {
			initial[i] = pl.fold(initial[i], pl.hot)
		}
	}
	pl.updates = make([][]motion.Object, len(initial))
	for r := 0; r < skewRounds; r++ {
		for _, o := range ds.UpdateBatch(1, 60+2*float64(r)) {
			pl.updates[o.UID-1] = append(pl.updates[o.UID-1], o)
		}
	}
	or := newOracle(ds.Policies, initial, skewClients)

	var db *sharded.DB
	dbDir, err := p.setUp(skewSetups, func(dir string, first bool) (setupTimes, pageCounts, func() error, error) {
		d, st, err := p.openSharded(dir, ds.Policies, initial)
		if err != nil {
			return st, pageCounts{}, nil, err
		}
		pc, err := p.shardedPagePass(d, prq, knn, or, first)
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
	if p.tr != nil {
		spatial, err := p.spatialPages(ds, initial, prq)
		if err != nil {
			return err
		}
		p.layer["spatialidx.pages_per_prq"] = spatial
		p.grantorsPerIssuer(ds, prq)
	}

	clients := make([]*skewClient, skewClients)
	for c := range clients {
		cl := &skewClient{p: p, db: db, plan: pl, log: or.writers[c],
			rng:   rand.New(rand.NewSource(p.seed*skewClients + int64(c))),
			next:  make([]int, len(initial)),
			stamp: make([]int, pl.groups),
			qc:    &queryClient{db: db, or: or, tr: p.tr, layer: "sharded", prq: prq, knn: knn}}
		for _, o := range initial {
			if pl.owner(o.UID) != c {
				continue
			}
			if g, m, ok := pl.group(o.UID); ok {
				if m == 0 {
					cl.groups = append(cl.groups, g)
				}
			} else if pl.isHot(o.UID) {
				cl.hot = append(cl.hot, o.UID)
			} else {
				cl.cold = append(cl.cold, o.UID)
			}
		}
		clients[c] = cl
	}

	for _, cl := range clients {
		cl.qc.warm(skewWarm)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	st0, txnDev0, walDev0, dev0, pageDev0 := db.Stats(), p.fs.snap(kindTxnLog), p.fs.snap(kindWAL), p.fs.total(), p.fs.snap(kindPage)
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(p.dur)
	var (
		wg   sync.WaitGroup
		side tally
		lags latencies
	)
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(deadline)
		}()
	}
	// Alongside the clients: consistent cuts that must never show part of
	// a batch, and (traced) the followers' lag.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastCut := time.Now()
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			if p.tr != nil {
				for _, shard := range db.FollowerLags() {
					for _, l := range shard {
						lags = append(lags, float64(l))
					}
				}
			}
			if now.Sub(lastCut) >= skewCheckEvery {
				lastCut = now
				side.op(checkGroups(db, pl))
			}
			if p.tr != nil {
				time.Sleep(skewLagEvery)
			} else {
				time.Sleep(time.Until(lastCut.Add(skewCheckEvery)))
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	st1 := db.Stats()
	txnDev, walDev := p.fs.snap(kindTxnLog).sub(txnDev0), p.fs.snap(kindWAL).sub(walDev0)
	dev, pageDev := p.fs.total().sub(dev0), p.fs.snap(kindPage).sub(pageDev0)
	p.tr.gcSpans(start)

	or.index()
	p.tally.merge(&side)
	var commit, txn timings
	queries, batches := 0, 0
	qcs := make([]*queryClient, len(clients))
	for i, cl := range clients {
		cl.qc.verify()
		p.tally.merge(&cl.tally)
		commit.merge(&cl.commit)
		txn.merge(&cl.txn)
		queries += cl.qc.n
		batches += cl.txn.n()
		qcs[i] = cl.qc
	}
	p.recordQueries(elapsed, qcs...)
	p.recordWrites(&commit, &txn, elapsed)
	p.memWindow(&ms0, &ms1, queries)
	commits := float64(commit.n() + batches)
	p.recordCommitPath(commits, st1.WAL.Appends-st0.WAL.Appends, st1.WAL.Syncs-st0.WAL.Syncs,
		st1.WAL.BytesAppended-st0.WAL.BytesAppended, dev, walDev)
	p.recordCheckpoints(st0.Checkpoints, st1.Checkpoints)
	p.layer["peb.view_swaps_per_commit"] = ratio(float64(st1.ViewSwaps-st0.ViewSwaps), commits)
	p.layer["store.hit_ratio"] = ratio(float64(st1.Buffer.Hits-st0.Buffer.Hits), float64(st1.Buffer.Accesses()-st0.Buffer.Accesses()))
	p.layer["store.read_calls_per_query"] = ratio(float64(pageDev.reads), float64(queries))
	p.layer["store.read_us_per_query"] = ratio(float64(pageDev.readNs)/1e3, float64(queries))
	var shardQueries, hotCommits, allCommits uint64
	hotValue := cfg.Grid.HilbertValue(float64(pl.hot%2)*pl.half+pl.half/2, float64(pl.hot/2)*pl.half+pl.half/2)
	for i, s := range st1.Shards {
		shardQueries += s.Queries - st0.Shards[i].Queries
		allCommits += s.Commits - st0.Shards[i].Commits
		if s.Route.Lo <= hotValue && hotValue <= s.Route.Hi {
			hotCommits += s.Commits - st0.Shards[i].Commits
		}
	}
	p.layer["sharded.shards_per_query"] = ratio(float64(shardQueries), float64(queries))
	p.layer["sharded.follower_read_ratio"] = ratio(float64(st1.FollowerReads-st0.FollowerReads), float64(shardQueries))
	p.layer["sharded.hot_shard_commit_share"] = ratio(float64(hotCommits), float64(allCommits))
	p.layer["sharded.txn_log_syncs_per_txn"] = ratio(float64(txnDev.syncs), float64(batches))
	p.layer["peb.replica_lag_p99_records"] = lags.pct(0.99)

	// No lost or duplicated object, every acknowledged write readable, no
	// partial batch, in one consistent cut.
	snap, err := db.Snapshot()
	if err != nil {
		return err
	}
	p.checkStates(snap, or)
	snap.Close()
	p.op(checkGroups(db, pl))
	sum := 0
	for _, s := range db.Stats().Shards {
		sum += s.Size
	}
	p.check(db.Size() == len(initial) && sum == len(initial), "%d users indexed (shards hold %d), want %d", db.Size(), sum, len(initial))
	if err := db.Checkpoint(); err != nil {
		return err
	}
	size, err := dirBytes(dbDir)
	if err != nil {
		return err
	}
	p.e2e["disk_bytes_per_obj"] = ratio(float64(size), float64(len(initial)))
	return nil
}

// checkGroups takes a consistent cut and checks that every batch group's
// members carry the same batch time: a cross-shard batch is all or
// nothing.
func checkGroups(db *sharded.DB, pl *skewPlan) error {
	snap, err := db.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	for g := 0; g < pl.groups; g++ {
		var t0 float64
		for m := 0; m < batchSize; m++ {
			o, ok, err := snap.Lookup(peb.UserID(g*batchSize + m + 1))
			if err != nil || !ok {
				return fmt.Errorf("group %d member %d unreadable: found %v, %v", g, m, ok, err)
			}
			if m == 0 {
				t0 = o.T
			} else if o.T != t0 {
				return fmt.Errorf("group %d shows a partial batch: member %d at t=%g, member 0 at t=%g", g, m, o.T, t0)
			}
		}
	}
	return nil
}

// openSharded opens a sharded DB and loads it: policies broadcast to every
// shard in one batch, the shared encoding, then every object in one
// cross-shard batch.
func (p *pass) openSharded(dir string, pol *policy.Store, objs []motion.Object) (*sharded.DB, setupTimes, error) {
	var st setupTimes
	opts := sharded.Options{Shards: skewShards, Dir: dir, ReplicasPerShard: 1,
		DB: peb.Options{Durability: peb.DurabilitySync}}
	if p.fs != nil {
		opts.DB.FS = p.fs
		// The router creates shard directories itself only on the
		// operating system's filesystem type.
		for i := 0; i < skewShards; i++ {
			if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)), 0o755); err != nil {
				return nil, st, err
			}
		}
	}
	start := time.Now()
	var db *sharded.DB
	err := p.tr.timed("sharded", "sharded.open", func() (err error) {
		db, err = sharded.Open(opts)
		return err
	})
	st.open = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	start = time.Now()
	err = p.tr.timed("policy", "policy.broadcast", func() error {
		b := db.NewBatch()
		pol.ForEachGrant(func(owner, viewer policy.UserID, pl policy.Policy) bool {
			b.DefineRelation(peb.UserID(owner), peb.UserID(viewer), pl.Role)
			b.Grant(peb.UserID(owner), pl.Role, pl.Locr, pl.Tint)
			return true
		})
		return db.Apply(b)
	})
	if err == nil {
		err = p.tr.timed("policy", "policy.encode", db.EncodePolicies)
	}
	st.encode = time.Since(start)
	if err != nil {
		db.Close()
		return nil, st, err
	}
	start = time.Now()
	err = p.tr.timed("sharded", "sharded.bulk_apply", func() error {
		b := db.NewBatch()
		for _, o := range objs {
			b.Upsert(o)
		}
		return db.Apply(b)
	})
	st.apply = time.Since(start)
	if err != nil {
		db.Close()
		return nil, st, err
	}
	return db, st, nil
}

// shardedPagePass replays the pass queries on one consistent cut and
// counts the index pages the shards' buffer pools served per query. Each
// shard's index fits its buffer, so these are pages visited, not misses.
func (p *pass) shardedPagePass(db *sharded.DB, prq []workload.PRQuery, knn []workload.KNNQuery, or *oracle, verify bool) (pageCounts, error) {
	var pc pageCounts
	snap, err := db.Snapshot()
	if err != nil {
		return pc, err
	}
	defer snap.Close()
	b0 := db.Stats().Buffer
	for _, q := range prq[:passCount] {
		res, err := snap.RangeQuery(q.Issuer, region(q.W), q.T)
		if err != nil {
			return pc, err
		}
		pc.prqResults += len(res)
		if verify {
			p.op(or.checkPRQ(q.Issuer, q.W, q.T, res, or.close(or.open())))
		}
	}
	b1 := db.Stats().Buffer
	for _, q := range knn[:passCount] {
		res, err := snap.NearestNeighbors(q.Issuer, q.X, q.Y, q.K, q.T)
		if err != nil {
			return pc, err
		}
		if verify {
			p.op(or.checkPkNN(q.Issuer, q.X, q.Y, q.K, q.T, res, or.close(or.open())))
		}
	}
	b2 := db.Stats().Buffer
	pc.prqAccess = float64(b1.Accesses()-b0.Accesses()) / passCount
	pc.knnAccess = float64(b2.Accesses()-b1.Accesses()) / passCount
	pc.prqMiss, pc.knnMiss = pc.prqAccess, pc.knnAccess
	return pc, nil
}

// skewClient is one of sharded-skew's closed-loop clients.
type skewClient struct {
	tally
	p           *pass
	db          *sharded.DB
	plan        *skewPlan
	log         *writerLog
	rng         *rand.Rand
	qc          *queryClient
	hot, cold   []motion.UserID
	groups      []int
	next        []int // per user: its next update round
	stamp       []int // per group: batches sent
	commit, txn timings
	nextGroup   int
}

// update returns uid's next generated update.
func (c *skewClient) update(uid motion.UserID) motion.Object {
	u := c.plan.updates[uid-1]
	o := u[c.next[uid-1]%len(u)]
	c.next[uid-1]++
	return o
}

func (c *skewClient) run(deadline time.Time) {
	tr := c.p.tr
	for time.Now().Before(deadline) {
		r := c.rng.Float64()
		if r >= skewBatchShare && r < skewBatchShare+skewQueryShare {
			c.qc.step()
			continue
		}
		id := tr.id()
		if r < skewBatchShare {
			g := c.groups[c.nextGroup%len(c.groups)]
			c.nextGroup++
			c.stamp[g]++
			b := c.db.NewBatch()
			objs := make([]motion.Object, batchSize)
			for m := range objs {
				uid := motion.UserID(g*batchSize + m + 1)
				objs[m] = c.plan.fold(c.update(uid), m%4)
				objs[m].T = 60 + float64(c.stamp[g])*1e-3
				b.Upsert(objs[m])
			}
			n := c.log.send(objs...)
			s := time.Now()
			err := c.db.Apply(b)
			d := time.Since(s)
			c.op(err)
			c.log.acked.Store(n)
			c.txn.add(time.Now(), d)
			tr.add(id, 0, 0, "sharded", "sharded.apply", s, d)
			continue
		}
		var uid motion.UserID
		if c.rng.Float64() < skewHotShare {
			uid = c.hot[c.rng.Intn(len(c.hot))]
		} else {
			uid = c.cold[c.rng.Intn(len(c.cold))]
		}
		o := c.update(uid)
		if c.plan.isHot(uid) {
			o = c.plan.fold(o, c.plan.hot)
		}
		n := c.log.send(o)
		s := time.Now()
		err := c.db.Upsert(o)
		d := time.Since(s)
		c.op(err)
		c.log.acked.Store(n)
		c.commit.add(time.Now(), d)
		tr.add(id, 0, 0, "sharded", "sharded.upsert", s, d)
	}
}
