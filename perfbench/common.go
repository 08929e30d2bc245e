package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/spatialidx"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/peb"
)

// Table 1 defaults shared by every workload.
const (
	windowSide = 200.0 // PRQ window side
	knnK       = 5     // PkNN k
	passCount  = 200   // queries per cold page pass, per query type
	poolCount  = 2000  // distinct queries each client cycles through
	sampleStep = 8     // every sampleStep-th query is checked by the oracle
	maxSamples = 400   // oracle checks per client
)

// tally counts one goroutine's attempted and failed operations and output
// checks; a failure's message goes to standard error. Clients keep their
// own tally and merge it into the pass when they stop.
type tally struct {
	attempted, failed int64
	failures          []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 10 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// check counts one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.op(nil)
	} else {
		t.op(fmt.Errorf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 10 {
			t.failures = append(t.failures, f)
		}
	}
}

// dataset generates the population, its policies and its queries.
func (p *pass) dataset(users, policies int) (*workload.Dataset, error) {
	cfg := workload.DefaultConfig()
	cfg.NumUsers = p.scaled(users, 200)
	cfg.PoliciesPerUser = policies
	cfg.Seed = p.seed
	var ds *workload.Dataset
	start := time.Now()
	err := p.tr.timed("bench", "workload.generate", func() (err error) {
		ds, err = workload.Generate(cfg)
		return err
	})
	p.layer["workload.generate_s"] = time.Since(start).Seconds()
	return ds, err
}

// savedPolicies serializes the dataset's policies for DB.LoadPolicies.
func savedPolicies(ds *workload.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	err := ds.Policies.Save(&buf)
	return buf.Bytes(), err
}

func region(w bxtree.Window) peb.Region {
	return peb.Region{MinX: w.MinX, MinY: w.MinY, MaxX: w.MaxX, MaxY: w.MaxY}
}

// setupTimes are one set-up's phases.
type setupTimes struct{ open, encode, apply, ready time.Duration }

func (s setupTimes) total() time.Duration { return s.open + s.encode + s.apply + s.ready }

// setUp makes n set-ups, each in a fresh directory, and keeps the last.
// build opens and loads one set-up and runs its cold page pass (checked by
// the oracle on the first); it returns the set-up's times, its page counts
// and how to tear it down. setUp reports the medians, checks that every
// set-up read the same pages, and returns the kept set-up's directory.
func (p *pass) setUp(n int, build func(dir string, first bool) (setupTimes, pageCounts, func() error, error)) (string, error) {
	var (
		times []setupTimes
		pages []pageCounts
	)
	for i := 0; ; i++ {
		dir := filepath.Join(p.dir, fmt.Sprint("db", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		st, pc, teardown, err := build(dir, i == 0)
		if err != nil {
			return "", err
		}
		times = append(times, st)
		pages = append(pages, pc)
		if i == n-1 {
			p.recordSetups(times)
			p.recordPages(pages)
			return dir, nil
		}
		if err := teardown(); err != nil {
			return "", err
		}
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
	}
}

// recordSetups reports the medians of the set-ups a pass made.
func (p *pass) recordSetups(runs []setupTimes) {
	var total, enc, apply []float64
	for _, r := range runs {
		total = append(total, r.total().Seconds())
		enc = append(enc, r.encode.Seconds())
		apply = append(apply, r.apply.Seconds())
	}
	p.e2e["setup_s"] = median(total)
	p.layer["policy.encode_s"] = median(enc)
	p.layer["peb.bulk_apply_s"] = median(apply)
}

// openSingle opens a single-tree DB and loads it: the policies (load plus
// the offline encoding), then every object in one batch.
func (p *pass) openSingle(opts peb.Options, pol []byte, objs []motion.Object) (*peb.DB, setupTimes, error) {
	var st setupTimes
	if p.fs != nil {
		opts.FS = p.fs
	}
	start := time.Now()
	var db *peb.DB
	err := p.tr.timed("peb", "peb.open", func() (err error) {
		db, err = peb.Open(opts)
		return err
	})
	st.open = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	start = time.Now()
	err = p.tr.timed("policy", "policy.load_encode", func() error {
		return db.LoadPolicies(bytes.NewReader(pol))
	})
	st.encode = time.Since(start)
	if err != nil {
		db.Close()
		return nil, st, err
	}
	start = time.Now()
	err = p.tr.timed("peb", "peb.bulk_apply", func() error {
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

// pageCounts are the per-query page counts of one cold pass.
type pageCounts struct {
	prqMiss, prqAccess, knnMiss, knnAccess float64
	prqResults                             int
}

// pagePass replays the first passCount queries of each type from a cold
// buffer through one pinned snapshot per type, counting the pages they
// read (the paper's method). With verify, the oracle checks every answer.
func (p *pass) pagePass(db *peb.DB, prq []workload.PRQuery, knn []workload.KNNQuery, or *oracle, verify bool) (pageCounts, error) {
	var pc pageCounts
	run := func(fn func(*peb.Snapshot) error) (store.BufferStats, error) {
		if err := p.tr.timed("btree", "btree.drop_caches", db.DropCaches); err != nil {
			return store.BufferStats{}, err
		}
		snap, err := db.Snapshot()
		if err != nil {
			return store.BufferStats{}, err
		}
		defer snap.Close()
		err = fn(snap)
		return snap.IOStats(), err
	}
	st, err := run(func(s *peb.Snapshot) error {
		for _, q := range prq[:passCount] {
			res, err := s.RangeQuery(q.Issuer, region(q.W), q.T)
			if err != nil {
				return err
			}
			pc.prqResults += len(res)
			if verify {
				p.op(or.checkPRQ(q.Issuer, q.W, q.T, res, or.close(or.open())))
			}
		}
		return nil
	})
	if err != nil {
		return pc, err
	}
	pc.prqMiss = float64(st.Misses) / passCount
	pc.prqAccess = float64(st.Accesses()) / passCount
	st, err = run(func(s *peb.Snapshot) error {
		for _, q := range knn[:passCount] {
			res, err := s.NearestNeighbors(q.Issuer, q.X, q.Y, q.K, q.T)
			if err != nil {
				return err
			}
			if verify {
				p.op(or.checkPkNN(q.Issuer, q.X, q.Y, q.K, q.T, res, or.close(or.open())))
			}
		}
		return nil
	})
	pc.knnMiss = float64(st.Misses) / passCount
	pc.knnAccess = float64(st.Accesses()) / passCount
	return pc, err
}

// recordPages reports a pass's page counts, and checks that every set-up
// of the same seed read exactly the same number of pages.
func (p *pass) recordPages(runs []pageCounts) {
	pc := runs[0]
	for i, r := range runs[1:] {
		p.check(r == pc, "set-up %d read %+v pages, set-up 0 read %+v", i+1, r, pc)
	}
	p.e2e["prq_pages"] = pc.prqMiss
	p.e2e["pknn_pages"] = pc.knnMiss
	p.layer["store.pages_per_prq"] = pc.prqAccess
	p.layer["store.pages_per_pknn"] = pc.knnAccess
	p.layer["core.results_per_page"] = ratio(float64(pc.prqResults), pc.prqAccess*passCount)
}

// spatialPages replays the pass's PRQs on the paper's baseline — a
// Bx-tree with policy filtering after the spatial search — over the same
// objects and policies, from a cold buffer of paper-query's size, and
// returns its pages read per query.
func (p *pass) spatialPages(ds *workload.Dataset, objs []motion.Object, prq []workload.PRQuery) (float64, error) {
	ix, err := spatialidx.New(bxtree.DefaultConfig(), store.NewBufferPool(store.NewMemDisk(), p.scaled(store.DefaultBufferPages, 4)), ds.Policies)
	if err != nil {
		return 0, err
	}
	for _, o := range objs {
		if err := ix.Insert(o); err != nil {
			return 0, err
		}
	}
	if err := ix.Pool().DropAll(); err != nil {
		return 0, err
	}
	ix.Pool().ResetStats()
	for _, q := range prq[:passCount] {
		err := p.tr.timed("spatialidx", "spatialidx.prq", func() error {
			_, err := ix.PRQ(q.Issuer, q.W, q.T)
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(ix.Pool().Stats().Misses) / passCount, nil
}

// replayer re-runs, outside the engine, the curve decomposition a PRQ
// performs: one DecomposeRect per active index partition, on the window
// enlarged by the partition's time gap. The partitions are those of the
// bulk-loaded objects, so the replay matches the engine only while no
// update has moved an object to another partition: paper-query replays
// during its query phase, before its updates; the other workloads, whose
// writers run beside their queries, do not replay. Like the engine, it
// decomposes nothing for an issuer no one has granted a policy.
type replayer struct {
	cfg      bxtree.Config
	tracker  *bxtree.PartitionTracker
	friendly map[motion.UserID]bool // PRQ issuers with at least one grantor
}

func newReplayer(pol *policy.Store, prq []workload.PRQuery, objs []motion.Object) *replayer {
	cfg := bxtree.DefaultConfig()
	r := &replayer{cfg: cfg, tracker: bxtree.NewPartitionTracker(cfg), friendly: map[motion.UserID]bool{}}
	for _, q := range prq {
		r.friendly[q.Issuer] = len(pol.Grantors(policy.UserID(q.Issuer))) > 0
	}
	for _, o := range objs {
		r.tracker.Set(o.UID, cfg.LabelIndex(o.T))
	}
	return r
}

// decompose returns the number of curve intervals the PRQ scans.
func (r *replayer) decompose(issuer motion.UserID, w bxtree.Window, tq float64) (int, error) {
	n := 0
	if !r.friendly[issuer] {
		return 0, nil
	}
	for _, pr := range r.tracker.Active(tq) {
		ew := w.Enlarge(r.cfg.MaxSpeed * pr.Gap)
		rect, ok := r.cfg.Grid.RectOf(ew.MinX, ew.MinY, ew.MaxX, ew.MaxY)
		if !ok {
			continue
		}
		ivs, err := r.cfg.DecomposeRect(rect)
		if err != nil {
			return 0, err
		}
		n += len(ivs)
	}
	return n, nil
}

// querier is the query surface peb.DB and sharded.DB share.
type querier interface {
	RangeQuery(issuer peb.UserID, r peb.Region, t float64) ([]peb.Object, error)
	NearestNeighbors(issuer peb.UserID, x, y float64, k int, t float64) ([]peb.Neighbor, error)
}

// sample is one query kept for the oracle.
type sample struct {
	prq  *workload.PRQuery
	knn  *workload.KNNQuery
	objs []motion.Object
	nbrs []bxtree.Neighbor
	br   bracket
}

// queryClient issues PRQs and PkNNs alternately from its pools.
type queryClient struct {
	tally
	db             querier
	or             *oracle
	tr             *tracer
	layer          string // span layer and prefix: "core" or "sharded"
	prq            []workload.PRQuery
	knn            []workload.KNNQuery
	replay         *replayer // traced passes only
	ownsDevice     bool      // sole caller: device spans are its children
	n              int
	prqLat, knnLat timings
	samples        []sample
	decomposeUS    latencies
	intervals      int
	replays        int
}

// step issues the client's next query.
func (c *queryClient) step() {
	i := c.n
	c.n++
	keep := (i/2)%sampleStep == 0 && len(c.samples) < maxSamples
	id := c.tr.id()
	if c.ownsDevice {
		c.tr.setCur(id)
		defer c.tr.setCur(0)
	}
	br := c.or.open()
	if i%2 == 0 {
		q := &c.prq[(i/2)%len(c.prq)]
		start := time.Now()
		res, err := c.db.RangeQuery(q.Issuer, region(q.W), q.T)
		d := time.Since(start)
		c.op(err)
		c.prqLat.add(time.Now(), d)
		c.tr.add(id, 0, 0, c.layer, c.layer+".prq", start, d)
		if keep && err == nil {
			c.samples = append(c.samples, sample{prq: q, objs: res, br: c.or.close(br)})
		}
		if c.replay != nil && (i/2)%4 == 0 {
			rs := time.Now()
			n, err := c.replay.decompose(q.Issuer, q.W, q.T)
			rd := time.Since(rs)
			c.op(err)
			c.tr.add(c.tr.id(), id, id, "zcurve", "zcurve.decompose", rs, rd)
			c.decomposeUS.add(rd)
			c.intervals += n
			c.replays++
		}
		return
	}
	q := &c.knn[(i/2)%len(c.knn)]
	start := time.Now()
	res, err := c.db.NearestNeighbors(q.Issuer, q.X, q.Y, q.K, q.T)
	d := time.Since(start)
	c.op(err)
	c.knnLat.add(time.Now(), d)
	c.tr.add(id, 0, 0, c.layer, c.layer+".pknn", start, d)
	if keep && err == nil {
		c.samples = append(c.samples, sample{knn: q, nbrs: res, br: c.or.close(br)})
	}
}

// warm issues the first n queries of each of the client's pools (all of
// them if n is larger), unmeasured. The engine keeps per-query search
// state in pools that grow to the largest search they have served; warmed
// over the query pools, they have reached that size before the measured
// window, instead of growing through it.
func (c *queryClient) warm(n int) {
	for i := range min(n, len(c.prq)) {
		q := &c.prq[i]
		_, err := c.db.RangeQuery(q.Issuer, region(q.W), q.T)
		c.op(err)
	}
	for i := range min(n, len(c.knn)) {
		q := &c.knn[i]
		_, err := c.db.NearestNeighbors(q.Issuer, q.X, q.Y, q.K, q.T)
		c.op(err)
	}
}

// verify checks the client's samples against the oracle (after the
// writers stopped and or.index ran).
func (c *queryClient) verify() {
	for _, s := range c.samples {
		if s.prq != nil {
			c.op(c.or.checkPRQ(s.prq.Issuer, s.prq.W, s.prq.T, s.objs, s.br))
		} else {
			c.op(c.or.checkPkNN(s.knn.Issuer, s.knn.X, s.knn.Y, s.knn.K, s.knn.T, s.nbrs, s.br))
		}
	}
}

// recordQueries reports the query latencies of every client, the query
// rate over the measured window, and the per-layer query metrics.
func (p *pass) recordQueries(window time.Duration, clients ...*queryClient) {
	var prq, knn timings
	var dec latencies
	intervals, replays := 0, 0
	for _, c := range clients {
		prq.merge(&c.prqLat)
		knn.merge(&c.knnLat)
		dec = append(dec, c.decomposeUS...)
		intervals += c.intervals
		replays += c.replays
		p.tally.merge(&c.tally)
	}
	p.e2e["prq_p50_us"] = prq.us.pct(0.5)
	p.layer["client.prq_tail_us"] = prq.tail()
	p.layer["client.pknn_p50_us"] = knn.us.pct(0.5)
	p.layer["client.pknn_tail_us"] = knn.tail()
	p.e2e["query_per_s"] = float64(prq.n()+knn.n()) / window.Seconds()
	if replays > 0 {
		p.layer["zcurve.decompose_us"] = dec.mean()
		p.layer["zcurve.intervals_per_prq"] = ratio(float64(intervals), float64(replays))
		p.layer["core.scan_filter_us"] = prq.us.mean() - dec.mean()
	}
}

// grantorsPerIssuer reports the mean size of the PRQ issuers' grantor
// sets: the friends whose sequence values a PRQ probes.
func (p *pass) grantorsPerIssuer(ds *workload.Dataset, prq []workload.PRQuery) {
	total := 0
	for _, q := range prq {
		p.tr.timed("policy", "policy.grantors", func() error {
			total += len(ds.Policies.Grantors(policy.UserID(q.Issuer)))
			return nil
		})
	}
	p.layer["policy.grantors_per_issuer"] = ratio(float64(total), float64(len(prq)))
}

// memWindow reports the Go runtime's allocations and collections between
// two MemStats readings, per query.
func (p *pass) memWindow(before, after *runtime.MemStats, queries int) {
	p.layer["go.alloc_bytes_per_query"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(queries))
	p.layer["go.allocs_per_query"] = ratio(float64(after.Mallocs-before.Mallocs), float64(queries))
	p.layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
}

// clone copies a population, so later updates do not alter it.
func clone(objs []motion.Object) []motion.Object { return append([]motion.Object(nil), objs...) }
