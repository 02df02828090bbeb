// Command e2ebench is the repository's end-to-end benchmark. One run
// measures one workload through the code users run — birchd's serving
// stack (server.New over stream.Open, driven through server.Client over
// loopback) or the paper's offline pipeline (core.Run) — checks that the
// outputs are correct, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// measures the workload untraced, then again with spans recorded from
// this package's own wrappers around each layer, and reports the
// per-layer set (trace.go). A failed correctness gate prints the result
// with "correct": false and exits 1; an open-loop sender that fell too
// far behind its schedule makes the run invalid (exit 2, no result).
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload serve_ingest --seed 1 --seconds 20 --trace 0
//
// Workloads (the definitions sit beside each workload's code):
//
//	serve_ingest   closed-loop 64-point binary inserts into a durable birchd
//	serve_mixed    open-loop single-point classifies beside 64-point inserts
//	pipeline_ds1o  Phases 1–4 via core.Run on the paper's DS1 pattern, ~1M points
//
// Every workload reports every end-to-end metric. Where a metric's natural
// definition belongs to another workload, the workload measures its own
// counterpart:
//
//	metric                serving workloads                          pipeline_ds1o
//	setup_s               warm restart / start+preload+Flush (1)     input generation (1)
//	ingest_pts_per_cpu_s  acked points ÷ process CPU time from the   N ÷ process CPU time of
//	                      first send until Flush returns             one core.Run (2)
//	classify_p50_ms       one single-point classify request (3)      thread CPU time of one
//	                                                                 Result.Classify call (2)
//	dbar                  D̄ (quality.WeightedAvgDiameter) of the final clusters
//	mem_mb                live heap after a forced GC at the end of the timed phase,
//	                      minus the live heap before the measured instance's
//	                      set-up and the benchmark's own arrays made since (memMB)
//
// setup_s and the throughput and pipeline classify figures are CPU time,
// not wall time (cpu.go says why); the wall-clock set-up times and
// throughput are printed beside them. Process CPU time counts every
// thread: the program's goroutines, the garbage collector and, on the
// serving workloads, the load generator.
//
// (1) serve_ingest restarts a daemon on a store holding the fixed
// preload; serve_mixed starts an in-memory daemon, preloads it and
// flushes. Each run repeats its set-up, each time after a forced GC, for
// a few seconds in all, and reports the median (timeSetups).
// (2) The median over the run's rounds. A round is one core.Run over the
// whole input, each round in another order, then classifyReps classifies
// timed as one loop (per call).
// (3) Wall time. serve_mixed times classifies during the run from their
// scheduled send; serve_ingest, whose run sends no classifies, times the
// post-run classify gate's sequential requests against the final snapshot.
//
// Six more figures are printed but left out of the bounded set, because
// on a shared 2-vCPU host their run-to-run spread came within reach of,
// or past, the largest bound a regression check allows:
//
//   - ingest_pts_per_s: the wall-time throughput, acked points ÷ (first
//     send → Flush return) on the serving workloads, N ÷ core.Run wall
//     time on pipeline_ds1o. On a host whose cores other tenants share,
//     the spread of ten runs of the same code reached 0.46 (pipeline_ds1o)
//     and 0.73 (serve_ingest) of the median; serve_mixed's is its fixed
//     offered rate.
//   - insert_p50_ms (serving workloads): one insert request
//     (serve_mixed: from its scheduled send). Spread over ten seeds:
//     0.11; serve_ingest's insert path stays bounded through
//     ingest_pts_per_cpu_s.
//   - insert_p99_ms, classify_p99_ms: the same samples' 99th percentile.
//     On serve_mixed's 1500 inserts and 6000 classifies the p99 lands
//     where requests start to collide with the 500 ms compaction rounds,
//     so it moves by more than any usable bound from seed to seed.
//   - pipeline_s: on pipeline_ds1o the Phases 1–4 wall time, bounded
//     through ingest_pts_per_cpu_s; on the serving workloads
//     stream.MergeServingSnapshot over the final shard summaries (the
//     served model's Phases 2–3), a ~0.1 ms step too short to time
//     steadily end to end.
//   - error_share: failed, 429-refused and timed-out requests ÷ requests
//     attempted, carried as "failed" and "attempted" in the result line.
//     It is 0 on a healthy run, which no bound can be a share of.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"birch/internal/vec"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is the end-to-end metric set, reported by every workload with
// -trace 0. BENCHMARK.json lists the same names (checked by the tests).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ingest_pts_per_cpu_s", "pts/cpu_s"},
	{"classify_p50_ms", "ms"},
	{"dbar", "dist"},
	{"mem_mb", "MB"},
}

// reported are printed beside the end-to-end set but not bounded; see the
// package comment.
var reported = []metricSpec{
	{"ingest_pts_per_s", "pts/s"},
	{"insert_p50_ms", "ms"},
	{"insert_p99_ms", "ms"},
	{"classify_p99_ms", "ms"},
	{"pipeline_s", "s"},
}

// perLayer is the per-layer metric set, reported by every workload with
// -trace 1. A layer a workload bypasses reports 0. Definitions: trace.go.
var perLayer = []metricSpec{
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.coalesce_wait_ms", "ms"},
	{"server.pts_per_flush.insert", "pts"},
	{"server.pts_per_flush.classify", "pts"},
	{"server.rejected_429", "count"},
	{"wire.encode_ns_per_pt", "ns"},
	{"wire.decode_ns_per_pt", "ns"},
	{"wire.bytes_per_pt", "B"},
	{"stream.insert_batch_p50_ms", "ms"},
	{"stream.insert_batch_p99_ms", "ms"},
	{"stream.publishes_per_s", "1/s"},
	{"stream.compact_ms", "ms"},
	{"stream.publish_lag_ms", "ms"},
	{"stream.compactor_lag_pts", "pts"},
	{"pager.wal_bytes_per_pt", "B"},
	{"pager.wal_writes", "count"},
	{"pager.wal_write_ms", "ms/s"},
	{"pager.wal_syncs", "count"},
	{"pager.wal_sync_ms", "ms/s"},
	{"pager.page_writes", "count"},
	{"pager.page_reads", "count"},
	{"core.phase1_ms", "ms"},
	{"core.phase1_ns_per_pt", "ns"},
	{"core.rebuilds", "count"},
	{"core.final_threshold", "dist"},
	{"core.outlier_spills", "count"},
	{"cftree.leaf_entries", "count"},
	{"cftree.nodes", "count"},
	{"cftree.height", "count"},
	{"core.phase2_ms", "ms"},
	{"hc.phase3_ms", "ms"},
	{"kmeans.phase4_ms", "ms"},
	{"kmeans.finder_ns_per_query", "ns"},
	{"gen.late_p99_ms", "ms"},
	{"quality.dbar", "dist"},
	{"trace.overhead", "ratio"},
}

// sizes scales a workload. full is what the benchmark runs; the tests run
// quick, which exercises every code path in a fraction of a second.
type sizes struct {
	setupReps    int // set-ups per run; setup_s is their median
	restartReps  int // the same for serve_ingest's ~1 ms warm restart
	servePool    int // serving input pool, points (a multiple of 64)
	preload      int // serving preload, points (serveInputs)
	probeQueries int // post-run wire classify gate, queries
	ds1oPerClust int // pipeline_ds1o points per cluster (K = 100)
	compactReps  int // MergeServingSnapshot timings per run
}

var full = sizes{
	setupReps:    30,
	restartReps:  1000,
	servePool:    1 << 17,
	preload:      1 << 17,
	probeQueries: 1024,
	ds1oPerClust: 10000,
	compactReps:  51,
}

var quick = sizes{
	setupReps:    3,
	restartReps:  3,
	servePool:    1 << 12,
	preload:      1 << 11,
	probeQueries: 64,
	ds1oPerClust: 100,
	compactReps:  3,
}

// lateLimit is how late, at p99, an open-loop sender may run behind its
// schedule before the run is invalid: five classify intervals. Beyond it
// arrivals no longer follow the schedule, and the latencies describe the
// generator.
const lateLimit = 25 * time.Millisecond

// opts is one run's configuration.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	dir      string // scratch space: durable stores, the traced pass's span file
	sz       sizes
}

// gate is one correctness check's verdict.
type gate struct {
	name   string
	ok     bool
	detail string
}

// outcome is what one workload pass measured.
type outcome struct {
	e2e       map[string]float64
	samples   map[string]int // sample counts behind the latency metrics
	layers    map[string]float64
	gates     []gate
	notes     []string // observations that are not gates
	attempted int64
	failed    int64
	lateP99   time.Duration // open-loop sender lateness (0 for closed loops)
	heapBase  int64         // live heap before the measured instance's set-up (memMB)
	primary   string        // the e2e metric trace.overhead compares
}

func newOutcome(primary string) *outcome {
	return &outcome{
		e2e:     make(map[string]float64),
		samples: make(map[string]int),
		layers:  make(map[string]float64),
		primary: primary,
	}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.gates = append(o.gates, gate{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloadFunc runs one pass of a workload; tr is nil for the plain pass.
type workloadFunc func(ctx context.Context, o opts, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"serve_ingest":  runServeIngest,
	"serve_mixed":   runServeMixed,
	"pipeline_ds1o": runPipeline,
}

// meta stamps every report so numbers from different hosts, toolchains
// or commits cannot be mixed silently.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process plumbing; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "serve_ingest | serve_mixed | pipeline_ds1o")
		seed    = fs.Int64("seed", 1, "input generation seed")
		seconds = fs.Float64("seconds", 30, "measured duration per pass, in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		dir     = fs.String("dir", "", "scratch directory for durable stores (required)")
		commit  = fs.String("commit", "unknown", "commit under test, for the meta stamp")
		isQuick = fs.Bool("quick", false, "tiny input sizes (smoke test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *dir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: need -workload serve_ingest|serve_mixed|pipeline_ds1o, -dir, -seconds > 0 and -trace 0|1")
		return 2
	}
	o := opts{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: *dir, sz: full}
	if *isQuick {
		o.sz = quick
	}
	m := meta{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Commit: *commit,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	mj, _ := json.Marshal(m) // a flat struct of scalars cannot fail to marshal
	fmt.Fprintf(stdout, "meta %s\n", mj)

	res, err := execute(context.Background(), w, o, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(res.line))
	if !res.correct {
		return 1
	}
	return 0
}

// result is the final report line plus its verdict.
type result struct {
	line    []byte
	correct bool
	metrics map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the plain pass (and, when traced, the traced pass), prints
// the human-readable report and builds the final JSON line.
func execute(ctx context.Context, w workloadFunc, o opts, traced bool, out io.Writer) (*result, error) {
	plain, err := w(ctx, o, nil)
	if err != nil {
		return nil, err
	}
	report(out, "", plain)
	passes := []*outcome{plain}
	specs, values := endToEnd, plain.e2e
	if traced {
		tr := newTracer()
		tr.name = o.workload
		tp, err := w(ctx, o, tr)
		if err != nil {
			return nil, err
		}
		tp.layers["quality.dbar"] = tp.e2e["dbar"]
		if base := plain.e2e[plain.primary]; base > 0 {
			tp.layers["trace.overhead"] = tp.e2e[tp.primary] / base
		}
		if err := tr.writeFile(o.dir); err != nil {
			return nil, err
		}
		report(out, "traced ", tp)
		passes = append(passes, tp)
		specs, values = perLayer, tp.layers
	}

	res := &result{correct: true, metrics: make(map[string]metricValue, len(specs))}
	var attempted, failed int64
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
		for _, g := range p.gates {
			if !g.ok {
				res.correct = false
			}
		}
		if p.lateP99 > lateLimit {
			return nil, fmt.Errorf("open-loop sender ran late by %v at p99 (limit %v): run invalid",
				p.lateP99, lateLimit)
		}
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", s.name)
		}
		res.metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct, attempted, failed, res.metrics})
	if err != nil {
		return nil, err
	}
	res.line = line
	return res, nil
}

// report prints one pass's metrics and gates, one per line.
func report(out io.Writer, prefix string, p *outcome) {
	for i, s := range append(endToEnd[:len(endToEnd):len(endToEnd)], reported...) {
		if _, ok := p.e2e[s.name]; !ok && i >= len(endToEnd) {
			continue // a reported metric this workload does not define
		}
		fmt.Fprintf(out, "%smetric %s %.6g %s", prefix, s.name, p.e2e[s.name], s.unit)
		if n, ok := p.samples[s.name]; ok {
			fmt.Fprintf(out, " n=%d", n)
		}
		fmt.Fprintln(out)
	}
	share := 0.0
	if p.attempted > 0 {
		share = float64(p.failed) / float64(p.attempted)
	}
	fmt.Fprintf(out, "%smetric error_share %.6g share failed=%d attempted=%d\n", prefix, share, p.failed, p.attempted)
	if len(p.layers) > 0 {
		for _, s := range perLayer {
			if v, ok := p.layers[s.name]; ok {
				fmt.Fprintf(out, "%slayer %s %.6g %s\n", prefix, s.name, v, s.unit)
			}
		}
	}
	for _, g := range p.gates {
		verdict := "ok"
		if !g.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "%sgate %s %s %s\n", prefix, g.name, verdict, g.detail)
	}
	for _, n := range p.notes {
		fmt.Fprintf(out, "%snote %s\n", prefix, n)
	}
}

// ---- inputs -----------------------------------------------------------

// flatPoints holds a workload's pre-generated input in one flat array, so
// the timed phase allocates nothing per point and the garbage collector
// has no per-point objects to scan beside the server's own.
type flatPoints struct {
	dim  int
	data []float64
}

func flatten(pts []vec.Vector, dim int) flatPoints {
	f := flatPoints{dim: dim, data: make([]float64, len(pts)*dim)}
	for i, p := range pts {
		copy(f.data[i*dim:(i+1)*dim], p)
	}
	return f
}

func (f flatPoints) n() int { return len(f.data) / f.dim }

func (f flatPoints) at(i int) vec.Vector {
	return vec.Vector(f.data[i*f.dim : (i+1)*f.dim : (i+1)*f.dim])
}

// fill points hdr at the len(hdr) consecutive points starting at point i
// (wrapping around the pool), reusing hdr's headers.
func (f flatPoints) fill(hdr []vec.Vector, i int) {
	n := f.n()
	for k := range hdr {
		hdr[k] = f.at((i + k) % n)
	}
}

// shuffle permutes the points in place, keeping each point's coordinates
// together; headers from vectors keep their positions.
func (f flatPoints) shuffle(r *rand.Rand) {
	d := f.dim
	r.Shuffle(f.n(), func(a, b int) {
		for k := 0; k < d; k++ {
			f.data[a*d+k], f.data[b*d+k] = f.data[b*d+k], f.data[a*d+k]
		}
	})
}

// vectors returns one header per point, all sharing the flat backing.
// Used where an API takes []vec.Vector for the whole input (core.Run).
func (f flatPoints) vectors() []vec.Vector {
	out := make([]vec.Vector, f.n())
	for i := range out {
		out[i] = f.at(i)
	}
	return out
}

// ---- statistics ---------------------------------------------------------

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts latencies to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// latencyMetrics records p50 and p99 of lats under prefix_p50_ms and
// prefix_p99_ms, with the sample count.
func (o *outcome) latencyMetrics(prefix string, lats []time.Duration) {
	xs := durationsMS(lats)
	o.e2e[prefix+"_p50_ms"] = quantile(xs, 0.50)
	o.e2e[prefix+"_p99_ms"] = quantile(xs, 0.99)
	o.samples[prefix+"_p50_ms"] = len(xs)
	o.samples[prefix+"_p99_ms"] = len(xs)
}

// timeSetups sets up reps times, timing only the set-up itself, tears
// down every instance but the last, and returns the last. It records the
// median set-up CPU time as setup_s and notes the spread of both clocks.
// Each set-up starts
// after a full collection, so none pays for the garbage of the one
// before. The live heap before the last set-up is mem_mb's base. reps is
// fixed per workload, and sized so the set-ups span a few seconds: the
// median then stays clear of a burst of load from other tenants of the
// host, and whatever each torn-down instance leaves behind adds up to
// the same amount on every run.
func timeSetups[T any](out *outcome, reps int, setup func() (T, error), teardown func(T) error) (T, error) {
	cpus := make([]float64, 0, reps)
	walls := make([]float64, 0, reps)
	for i := 1; ; i++ {
		if i == reps {
			out.heapBase = liveHeap()
		} else {
			runtime.GC()
		}
		start, cpu0 := time.Now(), processCPU()
		v, err := setup()
		if err != nil {
			return v, err
		}
		cpus = append(cpus, (processCPU() - cpu0).Seconds())
		walls = append(walls, time.Since(start).Seconds())
		if i == reps {
			out.e2e["setup_s"] = median(cpus)
			out.samples["setup_s"] = reps
			for _, d := range []struct {
				clock string
				secs  []float64
			}{{"cpu", cpus}, {"wall", walls}} {
				out.note("setup %s: %d set-ups, min %.6g s, q25 %.6g s, median %.6g s, q75 %.6g s, max %.6g s", d.clock,
					reps, quantile(d.secs, 0), quantile(d.secs, 0.25), median(d.secs), quantile(d.secs, 0.75), quantile(d.secs, 1))
			}
			return v, nil
		}
		if err := teardown(v); err != nil {
			return v, err
		}
	}
}

// liveHeap returns the live heap in bytes. It collects until the figure
// holds still: an object with a finalizer — a closed file or socket —
// outlives the collection that finds it, and goes in a later one once
// its finalizer has run, as do sync.Pool victims.
func liveHeap() int64 {
	var st runtime.MemStats
	prev := int64(-1)
	for i := 0; i < 8; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let the finalizer goroutine run
		runtime.ReadMemStats(&st)
		if int64(st.HeapAlloc) == prev {
			break
		}
		prev = int64(st.HeapAlloc)
	}
	return prev
}

// memMB records mem_mb: the live heap now, minus the live heap just
// before the set-up of the instance the run measures (heapBase: inputs
// made before it, and whatever earlier set-ups left behind), minus own
// bytes the benchmark allocated since (inputs, latency buffers).
func (o *outcome) memMB(own int64) {
	o.e2e["mem_mb"] = float64(liveHeap()-o.heapBase-own) / (1 << 20)
}
