// Command perfbench is the repository's benchmark. It drives the PEB-tree
// engine (peb, peb/sharded, peb/cq) through their public APIs on one of
// three workloads generated from a seed, checks every answer it gets
// against a brute-force oracle, and prints one JSON result line:
//
//	perfbench --workload paper-query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured from
// the caller's side with tracing off. With --trace 1 the workload runs
// twice in the process, untraced and then traced, and the result holds
// the per-layer metrics of the traced pass, the tracing overhead on every
// end-to-end metric, and the client latencies of the untraced pass that
// are too unsteady for an end-to-end bound. The traced pass's spans are
// written to <out>/traces/. README.md explains the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics; every workload reports each of
// them. BENCHMARK.json names the same set (bench_test.go checks it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"prq_p50_us", "us"},
	{"query_per_s", "1/s"},
	{"prq_pages", "pages"},
	{"pknn_pages", "pages"},
	{"commit_p50_us", "us"},
	{"commit_per_s", "1/s"},
	{"txn_p50_us", "us"},
	{"disk_bytes_per_obj", "B"},
}

// clientLatencies are latencies seen by the caller that vary too much from
// run to run on a shared two-CPU machine to be held within an end-to-end
// bound (README.md). A traced run reports them among the per-layer
// metrics, as the untraced pass measured them.
var clientLatencies = []metricDef{
	{"client.pknn_p50_us", "us"},
	{"client.prq_tail_us", "us"},
	{"client.pknn_tail_us", "us"},
	{"client.commit_tail_us", "us"},
	{"client.txn_tail_us", "us"},
}

// perLayer lists the per-layer metrics of a traced run. A layer a
// workload does not exercise reports 0. The tracing overhead of each
// end-to-end metric is appended as overhead.<name> (see allLayerDefs).
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"policy.encode_s", "s"},
	{"peb.bulk_apply_s", "s"},
	{"zcurve.decompose_us", "us"},
	{"zcurve.intervals_per_prq", "count"},
	{"core.scan_filter_us", "us"},
	{"core.results_per_page", "ratio"},
	{"policy.grantors_per_issuer", "count"},
	{"store.pages_per_prq", "pages"},
	{"store.pages_per_pknn", "pages"},
	{"store.hit_ratio", "ratio"},
	{"store.read_calls_per_query", "count"},
	{"store.read_us_per_query", "us"},
	{"spatialidx.pages_per_prq", "pages"},
	{"peb.commit_apply_us", "us"},
	{"peb.view_swaps_per_commit", "count"},
	{"cq.eval_us_per_commit", "us"},
	{"cq.evaluated_per_commit", "count"},
	{"cq.pruned_ratio", "ratio"},
	{"cq.deltas_per_commit", "count"},
	{"store.wal_append_us", "us"},
	{"store.wal_fsync_us", "us"},
	{"store.wal_records_per_fsync", "count"},
	{"store.wal_bytes_per_commit", "B"},
	{"store.fsyncs_per_commit", "count"},
	{"store.write_bytes_per_commit", "B"},
	{"store.sync_calls_per_commit", "count"},
	{"peb.checkpoints", "count"},
	{"peb.ckpt_cut_us", "us"},
	{"peb.ckpt_build_ms", "ms"},
	{"peb.ckpt_publish_us", "us"},
	{"peb.ckpt_pages_flushed", "pages"},
	{"peb.ckpt_pages_reclaimed", "pages"},
	{"peb.reopen_ms", "ms"},
	{"sharded.shards_per_query", "count"},
	{"sharded.follower_read_ratio", "ratio"},
	{"sharded.hot_shard_commit_share", "ratio"},
	{"sharded.txn_log_syncs_per_txn", "count"},
	{"peb.replica_lag_p99_records", "records"},
	{"go.alloc_bytes_per_query", "B"},
	{"go.allocs_per_query", "count"},
	{"go.gc_cycles", "count"},
	{"bench.generator_late_ms", "ms"},
}

// allLayerDefs returns the metrics of a traced run: the client latencies,
// the per-layer metrics and the tracing overhead of every end-to-end
// metric.
func allLayerDefs() []metricDef {
	defs := append(append([]metricDef(nil), clientLatencies...), perLayer...)
	for _, d := range endToEnd {
		defs = append(defs, metricDef{"overhead." + d.name, d.unit})
	}
	return defs
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*pass) error{
	"paper-query":   runPaperQuery,
	"durable-mixed": runDurableMixed,
	"sharded-skew":  runShardedSkew,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: paper-query, durable-mixed or sharded-skew")
		seed    = flag.Int64("seed", 1, "input generation seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for database files and traces")
	)
	flag.Parse()
	res, err := run(*wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation and assembles its result. scale
// multiplies the population sizes: the command line always uses 1, the
// self-test a tiny one.
func run(wl string, seed int64, dur time.Duration, traced bool, scale float64, out string) (*resultOut, error) {
	drive, ok := workloads[wl]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	if dur <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	traces := filepath.Join(out, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	plain, err := runPass(drive, wl, seed, dur, scale, filepath.Join(runDir, "plain"), nil)
	if err != nil {
		return nil, err
	}
	res := &resultOut{Metrics: map[string]metricOut{}}
	res.Attempted, res.Failed = plain.attempted, plain.failed
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricOut{plain.e2e[d.name], d.unit}
		}
	} else {
		tr := newTracer()
		tp, err := runPass(drive, wl, seed, dur, scale, filepath.Join(runDir, "traced"), tr)
		if err != nil {
			return nil, err
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		for _, d := range endToEnd {
			tp.layer["overhead."+d.name] = tp.e2e[d.name] - plain.e2e[d.name]
		}
		for _, d := range clientLatencies {
			tp.layer[d.name] = plain.layer[d.name]
		}
		for _, d := range allLayerDefs() {
			res.Metrics[d.name] = metricOut{tp.layer[d.name], d.unit}
		}
		path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", wl, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		tr.summarize(os.Stderr)
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// pass is one run of a workload: its inputs' seed, the measured window,
// where its files live, and what it measured.
type pass struct {
	seed  int64
	dur   time.Duration
	scale float64
	dir   string
	tr    *tracer // nil in the untraced pass
	fs    *countFS

	e2e, layer map[string]float64
	tally
}

func runPass(drive func(*pass) error, wl string, seed int64, dur time.Duration, scale float64, dir string, tr *tracer) (*pass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &pass{seed: seed, dur: dur, scale: scale, dir: dir, tr: tr,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	if tr != nil {
		p.fs = newCountFS(tr)
	}
	if err := drive(p); err != nil {
		return nil, fmt.Errorf("%s: %w", wl, err)
	}
	for _, msg := range p.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", msg)
	}
	runtime.GC()
	return p, nil
}

// scaled scales a size by the pass's scale factor, never below least.
func (p *pass) scaled(n, least int) int {
	if s := int(float64(n) * p.scale); s > least {
		return s
	}
	return least
}

// latencies collects one operation type's latencies in microseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d.Nanoseconds())/1e3) }

// pct returns the q-quantile by nearest rank (0 for no samples).
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (l latencies) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum float64
	for _, v := range l {
		sum += v
	}
	return sum / float64(len(l))
}

// timings are one operation type's latencies with the time each one
// completed.
type timings struct {
	us latencies
	at []int64 // completion, Unix nanoseconds
}

func (t *timings) add(end time.Time, d time.Duration) {
	t.us.add(d)
	t.at = append(t.at, end.UnixNano())
}

func (t *timings) merge(o *timings) {
	t.us = append(t.us, o.us...)
	t.at = append(t.at, o.at...)
}

func (t *timings) n() int { return len(t.us) }

// tailWindow is the window tail latencies are taken over.
const tailWindow = time.Second

// tail returns the tail latency: the median, over the run's consecutive
// one-second windows, of the mean of each window's slowest 1 % (at least
// one operation; windows holding under half the typical count, at the
// run's edges, are skipped). A stall confined to a minority of windows,
// such as a checkpoint's, then moves it no more than any other window
// does, while a slowdown present in most windows moves it fully. A mean
// rather than a 99th percentile, because a slow mode that takes about 1 %
// of the operations, as the collector's cycles do in paper-query, moves a
// percentile back and forth across its edge from run to run.
func (t *timings) tail() float64 {
	by := map[int64]latencies{}
	for i, at := range t.at {
		by[at/int64(tailWindow)] = append(by[at/int64(tailWindow)], t.us[i])
	}
	var counts []float64
	for _, l := range by {
		counts = append(counts, float64(len(l)))
	}
	least := median(counts) / 2
	var per []float64
	for _, l := range by {
		if float64(len(l)) >= least {
			sort.Float64s(l)
			per = append(per, l[len(l)-max(1, len(l)/100):].mean())
		}
	}
	return median(per)
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 { return latencies(vs).pct(0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
