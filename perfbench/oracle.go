package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
)

// The oracle answers PRQ and PkNN by brute force over the generated
// population: every user's state is known to the benchmark (the initial
// dataset plus every update it sent), and visibility is the raw policy
// predicate policy.Store.Allows. It never consults an index.
//
// Queries run concurrently with writers, so a query may or may not see an
// update that was in flight while it ran. Each writer therefore logs its
// updates in send order and publishes two counters: updates issued (set
// before the call) and updates acknowledged (set after it returns). A
// query records, per writer, the acknowledged count before it starts and
// the issued count after it ends. Every update below the first was
// visible to it; none at or past the second was. A user's possible
// states are the last one below the first bound plus every one between
// the bounds — exactly one when no write to that user was in flight.

// writerLog is one writer's update stream. Only the writer appends to
// recs during the run; readers use it after the run.
type writerLog struct {
	recs          []motion.Object
	issued, acked atomic.Int64
	byUser        map[motion.UserID][]int // built after the run
}

// send logs the updates about to be issued and returns the new issued
// count; the caller stores it in acked once the write returned.
func (w *writerLog) send(objs ...motion.Object) int64 {
	w.recs = append(w.recs, objs...)
	n := int64(len(w.recs))
	w.issued.Store(n)
	return n
}

// bracket is the per-writer visibility window of one query.
type bracket struct{ lo, hi []int64 }

// oracle holds the population and every writer's log.
type oracle struct {
	pol     *policy.Store
	initial []motion.Object // indexed by uid-1
	writers []*writerLog
}

func newOracle(pol *policy.Store, initial []motion.Object, writers int) *oracle {
	o := &oracle{pol: pol, initial: initial}
	for i := 0; i < writers; i++ {
		o.writers = append(o.writers, &writerLog{})
	}
	return o
}

// open returns the lower bounds of a query's bracket; close completes it.
func (o *oracle) open() bracket {
	b := bracket{lo: make([]int64, len(o.writers)), hi: make([]int64, len(o.writers))}
	for i, w := range o.writers {
		b.lo[i] = w.acked.Load()
	}
	return b
}

func (o *oracle) close(b bracket) bracket {
	for i, w := range o.writers {
		b.hi[i] = w.issued.Load()
	}
	return b
}

// index builds the per-user position lists of every writer's log; call it
// once, after all writers have stopped.
func (o *oracle) index() {
	for _, w := range o.writers {
		w.byUser = map[motion.UserID][]int{}
		for i, r := range w.recs {
			w.byUser[r.UID] = append(w.byUser[r.UID], i)
		}
	}
}

// possible returns uid's possible states inside bracket b.
func (o *oracle) possible(uid motion.UserID, b bracket) []motion.Object {
	for wi, w := range o.writers {
		idx := w.byUser[uid]
		if len(idx) == 0 {
			continue
		}
		state := o.initial[uid-1]
		var out []motion.Object
		for _, i := range idx {
			switch {
			case int64(i) < b.lo[wi]:
				state = w.recs[i]
			case int64(i) < b.hi[wi]:
				out = append(out, w.recs[i])
			}
		}
		return append(out, state)
	}
	return []motion.Object{o.initial[uid-1]}
}

// latest returns uid's state after every logged update.
func (o *oracle) latest(uid motion.UserID) motion.Object {
	for _, w := range o.writers {
		if idx := w.byUser[uid]; len(idx) > 0 {
			return w.recs[idx[len(idx)-1]]
		}
	}
	return o.initial[uid-1]
}

func (o *oracle) visible(s motion.Object, issuer motion.UserID, tq float64) (x, y float64, ok bool) {
	x, y = s.PositionAt(tq)
	return x, y, o.pol.Allows(policy.UserID(s.UID), policy.UserID(issuer), x, y, tq)
}

func contains(states []motion.Object, s motion.Object) bool {
	for _, c := range states {
		if c == s {
			return true
		}
	}
	return false
}

// checkPRQ verifies a range query's answer: no duplicates, every returned
// object in one of its possible states and qualifying, and every user that
// qualifies in all of its possible states returned.
func (o *oracle) checkPRQ(issuer motion.UserID, w bxtree.Window, tq float64, got []motion.Object, b bracket) error {
	seen := make(map[motion.UserID]bool, len(got))
	for _, r := range got {
		if seen[r.UID] || r.UID == issuer {
			return fmt.Errorf("PRQ u%d: u%d returned twice or is the issuer", issuer, r.UID)
		}
		seen[r.UID] = true
		if !contains(o.possible(r.UID, b), r) {
			return fmt.Errorf("PRQ u%d: u%d returned in a state never written", issuer, r.UID)
		}
		if x, y, ok := o.visible(r, issuer, tq); !ok || !w.Contains(x, y) {
			return fmt.Errorf("PRQ u%d: u%d returned but does not qualify", issuer, r.UID)
		}
	}
	for i := range o.initial {
		uid := motion.UserID(i + 1)
		if uid == issuer || seen[uid] {
			continue
		}
		all := true
		for _, s := range o.possible(uid, b) {
			if x, y, ok := o.visible(s, issuer, tq); !ok || !w.Contains(x, y) {
				all = false
				break
			}
		}
		if all {
			return fmt.Errorf("PRQ u%d: u%d qualifies in each of its possible states %v but is missing", issuer, uid, o.possible(uid, b))
		}
	}
	return nil
}

// checkPkNN verifies a kNN answer: ascending distances that match each
// returned state, every returned object visible in one of its possible
// states, and no user that is visible in all of its possible states
// strictly closer than the k-th answer (or missing from a short answer).
func (o *oracle) checkPkNN(issuer motion.UserID, qx, qy float64, k int, tq float64, got []bxtree.Neighbor, b bracket) error {
	const eps = 1e-6
	if len(got) > k {
		return fmt.Errorf("PkNN u%d: %d answers for k=%d", issuer, len(got), k)
	}
	seen := make(map[motion.UserID]bool, len(got))
	for i, n := range got {
		r := n.Object
		if seen[r.UID] || r.UID == issuer {
			return fmt.Errorf("PkNN u%d: u%d returned twice or is the issuer", issuer, r.UID)
		}
		seen[r.UID] = true
		if !contains(o.possible(r.UID, b), r) {
			return fmt.Errorf("PkNN u%d: u%d returned in a state never written", issuer, r.UID)
		}
		x, y, ok := o.visible(r, issuer, tq)
		if !ok {
			return fmt.Errorf("PkNN u%d: u%d returned but not visible", issuer, r.UID)
		}
		if d := math.Hypot(x-qx, y-qy); math.Abs(d-n.Dist) > eps {
			return fmt.Errorf("PkNN u%d: u%d distance %g, want %g", issuer, r.UID, n.Dist, d)
		}
		if i > 0 && n.Dist < got[i-1].Dist {
			return fmt.Errorf("PkNN u%d: answers not sorted by distance", issuer)
		}
	}
	for i := range o.initial {
		uid := motion.UserID(i + 1)
		if uid == issuer || seen[uid] {
			continue
		}
		far, all := 0.0, true
		for _, s := range o.possible(uid, b) {
			x, y, ok := o.visible(s, issuer, tq)
			if !ok {
				all = false
				break
			}
			far = math.Max(far, math.Hypot(x-qx, y-qy))
		}
		if !all {
			continue
		}
		if len(got) < k || far < got[len(got)-1].Dist-eps {
			return fmt.Errorf("PkNN u%d: u%d, visible at most %g away in each of its possible states %v, is missing", issuer, uid, far, o.possible(uid, b))
		}
	}
	return nil
}
