package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req (the id of the request's root span); Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	Dur    int64  `json:"dur_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 4 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0      time.Time
	next    atomic.Uint64
	cur     atomic.Uint64 // the open request span of a single-client phase, parent of device spans
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children recorded during the call can name
// their parent before the parent itself is recorded.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// setCur marks id as the open request span of a single-client phase
// (0 clears it).
func (t *tracer) setCur(id uint64) {
	if t != nil {
		t.cur.Store(id)
	}
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req uint64, layer, name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	if req == 0 {
		req = id
	}
	s := span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed runs fn and records it as a span of its own request; it returns
// fn's error.
func (t *tracer) timed(layer, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(t.id(), 0, 0, layer, name, start, time.Since(start))
	return err
}

// gcSpans records the collector's stop-the-world pauses that ended after
// since as go-layer spans (the runtime keeps the last 256).
func (t *tracer) gcSpans(since time.Time) {
	if t == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := int(ms.NumGC)
	if n > len(ms.PauseEnd) {
		n = len(ms.PauseEnd)
	}
	for i := 0; i < n; i++ {
		k := (int(ms.NumGC) - 1 - i + len(ms.PauseEnd)) % len(ms.PauseEnd)
		end := time.Unix(0, int64(ms.PauseEnd[k]))
		if end.Before(since) {
			break
		}
		dur := time.Duration(ms.PauseNs[k])
		t.add(t.id(), 0, 0, "go", "go.gc_pause", end.Add(-dur), dur)
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints each layer's span count, total time and self time:
// a span's duration minus the part of it its child spans cover.
func (t *tracer) summarize(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]*span{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	byLayer := map[string]*agg{}
	for i := range t.spans {
		s := &t.spans[i]
		a := byLayer[s.Layer]
		if a == nil {
			a = &agg{}
			byLayer[s.Layer] = a
		}
		a.n++
		a.total += s.Dur
		a.self += s.Dur - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(byLayer))
	for l := range byLayer {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %10s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, l := range names {
		a := byLayer[l]
		fmt.Fprintf(w, "%-12s %10d %12.1f %12.1f\n", l, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped past the in-memory limit)\n", t.dropped)
	}
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.Start+k.Dur, parent.Start+parent.Dur)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
