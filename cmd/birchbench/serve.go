package main

// Network-serving workloads (BENCH_serve.json): an in-process birchd —
// real HTTP over loopback, micro-batched admission, the same binary
// frame codec production clients use — driven by an open-loop
// fixed-rate load generator. Open loop means arrival times are fixed in
// advance and latency is measured from the scheduled arrival, so queue
// buildup past the knee shows up in p99/p999 instead of being hidden by
// coordinated omission.
//
// The workload set:
//
//   - serve_classify_json_single: single-point JSON classifies, QPS
//     ramped ~1.6x per step until achieved throughput falls off the
//     offered rate — the saturation knee. Percentiles reported at the
//     knee step; every ramp step is recorded under steps.
//   - serve_classify_binary_b64: the same ramp over 64-point binary
//     frame batches. binary_vs_json_points is this knee's points/sec
//     over the JSON single-point knee's — the wire-tier payoff.
//   - serve_sweep_binary_b{1,16,64,256}: fixed-duration closed-loop
//     batch-size sweep at constant concurrency, locating where
//     coalescing and framing amortize.
//   - serve_overload_429: drives ~2x the binary knee into a small
//     admission queue. Correctness-gated: the server must shed with
//     429s (rejected_429 > 0), keep latency on accepted work bounded,
//     and still serve cleanly afterwards (post_check_ok).
//   - serve_insert_drain: an insert storm with a graceful Shutdown
//     racing it. Correctness-gated: the final snapshot must cover
//     exactly the 200-acked points (drain_exact) — the "no accepted
//     insert is lost" contract, measured not asserted.
//
// checkServe gates only on the correctness fields; the throughput
// numbers are trajectory data, compared across PRs like every other
// BENCH file.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"birch/internal/core"
	"birch/internal/server"
	"birch/internal/stream"
	"birch/internal/vec"
)

// RampStep is one fixed-rate step of a QPS ramp.
type RampStep struct {
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	Errors      int64   `json:"errors,omitempty"`
}

// ServeResult is one serving workload's record.
type ServeResult struct {
	Tier     string `json:"tier"`     // "json" or "binary"
	Endpoint string `json:"endpoint"` // "classify" or "insert"
	Batch    int    `json:"batch"`    // points per request

	// Knee outputs (ramp workloads): the highest offered rate the server
	// sustained (achieved >= 92% of offered with <0.5% errors), with the
	// latency distribution measured at that step.
	KneeQPS          float64    `json:"knee_qps,omitempty"`
	KneePointsPerSec float64    `json:"knee_points_per_sec,omitempty"`
	P50Ns            float64    `json:"p50_ns,omitempty"`
	P99Ns            float64    `json:"p99_ns,omitempty"`
	P999Ns           float64    `json:"p999_ns,omitempty"`
	Steps            []RampStep `json:"steps,omitempty"`

	// Sweep outputs (closed-loop workloads).
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	QPS          float64 `json:"qps,omitempty"`

	// PtsPerFlush is the mean points per classify-collector flush over
	// the whole workload (every ramp step) — the coalescing yield.
	PtsPerFlush float64 `json:"pts_per_flush,omitempty"`

	// BinaryVsJSONPoints is knee points/sec of this workload over the
	// JSON single-point classify knee (set on serve_classify_binary_b64).
	BinaryVsJSONPoints float64 `json:"binary_vs_json_points,omitempty"`

	// Overload outputs.
	OfferedQPS  float64 `json:"offered_qps,omitempty"`
	Rejected429 int64   `json:"rejected_429,omitempty"`
	PostCheckOK bool    `json:"post_check_ok,omitempty"`

	// Drain outputs.
	AckedPoints    int64 `json:"acked_points,omitempty"`
	SnapshotPoints int64 `json:"snapshot_points,omitempty"`
	DrainExact     bool  `json:"drain_exact,omitempty"`
}

// ---- load generation --------------------------------------------------

type loopResult struct {
	offered  int64
	ok       int64
	errs     int64
	rejected int64
	lats     []float64 // ns from scheduled arrival, successful requests
	elapsed  time.Duration
}

// openLoop schedules total = rate*dur arrivals at fixed intervals and
// fires each with one of conc workers as its time comes due. A worker
// that falls behind fires immediately, and the lateness lands in the
// latency sample — the open-loop property.
func openLoop(rate float64, dur time.Duration, conc int, fn func() error) loopResult {
	total := int64(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	interval := float64(dur.Nanoseconds()) / float64(total)
	var next, ok, errs, rejected atomic.Int64
	latParts := make([][]float64, conc)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []float64
			for {
				i := next.Add(1) - 1
				if i >= total {
					break
				}
				sched := time.Duration(float64(i) * interval)
				if wait := sched - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				err := fn()
				if err == nil {
					lats = append(lats, float64((time.Since(start) - sched).Nanoseconds()))
					ok.Add(1)
				} else {
					errs.Add(1)
					if errors.Is(err, server.ErrOverloaded) {
						rejected.Add(1)
					}
				}
			}
			latParts[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return loopResult{
		offered:  total,
		ok:       ok.Load(),
		errs:     errs.Load(),
		rejected: rejected.Load(),
		lats:     pooled(latParts),
		elapsed:  elapsed,
	}
}

func (r loopResult) achievedQPS() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ok) / r.elapsed.Seconds()
}

// ---- serving fixture --------------------------------------------------

// serveFixture is one in-process daemon with a preloaded, flushed
// engine, ready to classify.
type serveFixture struct {
	backend server.EngineBackend
	srv     *server.Server
	cl      *server.Client
	dim     int
}

func startServeFixture(preload []vec.Vector, dim, k int, opts server.Options) (*serveFixture, error) {
	cfg := core.DefaultConfig(dim, k)
	cfg.Memory = 4 << 20
	eng, err := stream.New(cfg, stream.Options{Shards: 2})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if len(preload) > 0 {
		if err := eng.InsertBatch(ctx, preload); err != nil {
			return nil, err
		}
		if err := eng.Flush(ctx); err != nil {
			return nil, err
		}
	}
	f := &serveFixture{
		backend: server.EngineBackend{Eng: eng, Cfg: cfg},
		dim:     dim,
	}
	f.srv = server.New(f.backend, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func(srv *server.Server, l net.Listener) {
		if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
			fatal(fmt.Errorf("serve fixture: %w", err))
		}
	}(f.srv, l)
	f.cl = server.NewClient("http://" + l.Addr().String())
	return f, nil
}

// classifyYield reads the daemon's classify-collector gauges and returns
// a func giving the mean points per flush since — the coalescing the
// workload run in between bought.
func (f *serveFixture) classifyYield(ctx context.Context) func() float64 {
	gauges := func() server.ServerGauges {
		st, err := f.cl.Stats(ctx)
		if err != nil {
			fatal(fmt.Errorf("serve fixture stats: %w", err))
		}
		return st.Server
	}
	g0 := gauges()
	return func() float64 {
		g1 := gauges()
		flushes := g1.ClassifyFlushes - g0.ClassifyFlushes
		if flushes == 0 {
			return 0
		}
		pts := g1.AvgClassifyBatch*float64(g1.ClassifyFlushes) - g0.AvgClassifyBatch*float64(g0.ClassifyFlushes)
		return pts / float64(flushes)
	}
}

func (f *serveFixture) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return f.srv.Shutdown(ctx)
}

// ---- workloads --------------------------------------------------------

// rampToKnee raises the offered rate geometrically until the server
// stops keeping up, returning the knee step and the full trace. fn
// issues one request of batch points.
func rampToKnee(startRate float64, stepDur time.Duration, conc, batch int, fn func() error) (knee RampStep, steps []RampStep) {
	const (
		growth   = 1.6
		maxSteps = 16
	)
	rate := startRate
	for s := 0; s < maxSteps; s++ {
		// Bound the per-step request count so extreme rates don't balloon
		// wall time or the latency sample.
		dur := stepDur
		if maxReq := 400000.0; rate*dur.Seconds() > maxReq {
			dur = time.Duration(maxReq / rate * float64(time.Second))
		}
		res := openLoop(rate, dur, conc, fn)
		step := RampStep{
			OfferedQPS:  rate,
			AchievedQPS: res.achievedQPS(),
			P50Ns:       percentile(res.lats, 0.50),
			P99Ns:       percentile(res.lats, 0.99),
			P999Ns:      percentile(res.lats, 0.999),
			Errors:      res.errs,
		}
		steps = append(steps, step)
		sustained := step.AchievedQPS >= 0.92*rate &&
			float64(res.errs) <= 0.005*float64(res.offered)
		if !sustained {
			break
		}
		knee = step
		rate *= growth
	}
	return knee, steps
}

func runServe(o opts) map[string]ServeResult {
	const (
		dim, k  = 8, 32
		preload = 40000
	)
	stepDur := time.Second
	startRate := 2000.0
	conc := 4 * max(4, runtime.GOMAXPROCS(0))
	if o.quick {
		stepDur = 250 * time.Millisecond
		startRate = 500.0
	}

	out := make(map[string]ServeResult)
	pts := blobs(401, dim, k, preload)
	query := blobs(402, dim, k, 4096)

	fix, err := startServeFixture(pts, dim, k, server.Options{ClassifyWorkers: 2})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	// 1. JSON single-point classify ramp.
	var qi atomic.Int64
	jsonFn := func() error {
		p := query[int(qi.Add(1))%len(query)]
		_, _, err := fix.cl.Classify(ctx, p)
		return err
	}
	yield := fix.classifyYield(ctx)
	jsonKnee, jsonSteps := rampToKnee(startRate, stepDur, conc, 1, jsonFn)
	out["serve_classify_json_single"] = ServeResult{
		Tier: "json", Endpoint: "classify", Batch: 1,
		KneeQPS: jsonKnee.AchievedQPS, KneePointsPerSec: jsonKnee.AchievedQPS,
		P50Ns: jsonKnee.P50Ns, P99Ns: jsonKnee.P99Ns, P999Ns: jsonKnee.P999Ns,
		Steps: jsonSteps, PtsPerFlush: yield(),
	}

	// 2. Binary 64-point classify-batch ramp.
	const rampBatch = 64
	binFn := func() error {
		i := int(qi.Add(1)) % (len(query) - rampBatch)
		_, _, err := fix.cl.ClassifyBatch(ctx, query[i:i+rampBatch], dim)
		return err
	}
	yield = fix.classifyYield(ctx)
	binKnee, binSteps := rampToKnee(startRate/8, stepDur, conc, rampBatch, binFn)
	binRes := ServeResult{
		Tier: "binary", Endpoint: "classify", Batch: rampBatch,
		KneeQPS: binKnee.AchievedQPS, KneePointsPerSec: binKnee.AchievedQPS * rampBatch,
		P50Ns: binKnee.P50Ns, P99Ns: binKnee.P99Ns, P999Ns: binKnee.P999Ns,
		Steps: binSteps, PtsPerFlush: yield(),
	}
	if jsonKnee.AchievedQPS > 0 {
		binRes.BinaryVsJSONPoints = binRes.KneePointsPerSec / jsonKnee.AchievedQPS
	}
	out["serve_classify_binary_b64"] = binRes

	// 3. Closed-loop batch-size sweep: constant concurrency, measure
	// delivered points/sec and percentiles per batch size.
	for _, batch := range []int{1, 16, 64, 256} {
		yield := fix.classifyYield(ctx)
		res := closedLoop(stepDur*2, max(16, conc/4), func() (int, error) {
			i := int(qi.Add(1)) % (len(query) - batch)
			_, _, err := fix.cl.ClassifyBatch(ctx, query[i:i+batch], dim)
			return batch, err
		})
		out[fmt.Sprintf("serve_sweep_binary_b%d", batch)] = ServeResult{
			Tier: "binary", Endpoint: "classify", Batch: batch,
			PointsPerSec: res.pointsPerSec, QPS: res.qps,
			P50Ns: res.p50, P99Ns: res.p99, P999Ns: res.p999,
			PtsPerFlush: yield(),
		}
	}
	if err := fix.shutdown(); err != nil {
		fatal(err)
	}

	// 4. Overload: ~2x the binary knee against a small queue. The gate is
	// behavioral: shed with 429s, survive, serve afterwards.
	overFix, err := startServeFixture(pts, dim, k, server.Options{
		QueueDepth:      4,
		ClassifyWorkers: 1,
	})
	if err != nil {
		fatal(err)
	}
	overRate := 4 * math.Max(binKnee.OfferedQPS, startRate)
	overFn := func() error {
		i := int(qi.Add(1)) % (len(query) - rampBatch)
		_, _, err := overFix.cl.ClassifyBatch(ctx, query[i:i+rampBatch], dim)
		return err
	}
	// Twice the usual worker pool: overload needs enough simultaneous
	// arrivals to actually fill the (tiny) admission queue, not just run
	// late in the open-loop schedule.
	overRes := openLoop(overRate, stepDur, 2*conc, overFn)
	post := false
	if err := overFix.cl.Healthz(ctx); err == nil {
		if _, _, err := overFix.cl.ClassifyBatch(ctx, query[:8], dim); err == nil {
			post = true
		}
	}
	out["serve_overload_429"] = ServeResult{
		Tier: "binary", Endpoint: "classify", Batch: rampBatch,
		OfferedQPS:  overRate,
		QPS:         overRes.achievedQPS(),
		P50Ns:       percentile(overRes.lats, 0.50),
		P99Ns:       percentile(overRes.lats, 0.99),
		P999Ns:      percentile(overRes.lats, 0.999),
		Rejected429: overRes.rejected,
		PostCheckOK: post,
	}
	if err := overFix.shutdown(); err != nil {
		fatal(err)
	}

	// 5. Insert storm + graceful drain. Conservation measured end to end:
	// client-side 200 count vs the final snapshot's covered mass.
	drainFix, err := startServeFixture(nil, dim, k, server.Options{})
	if err != nil {
		fatal(err)
	}
	const insBatch = 16
	var acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := (w*7919 + i*insBatch) % (preload - insBatch)
				n, err := drainFix.cl.InsertBatch(ctx, pts[j:j+insBatch], dim)
				if err != nil {
					return // shutdown refusals end the writer
				}
				acked.Add(n)
			}
		}(w)
	}
	time.Sleep(stepDur / 2)
	shutErr := drainFix.shutdown() // races the storm on purpose
	close(stop)
	wg.Wait()
	if shutErr != nil {
		fatal(fmt.Errorf("drain workload shutdown: %w", shutErr))
	}
	snap := drainFix.backend.Eng.Snapshot()
	var snapPts int64
	if snap != nil {
		snapPts = snap.Points
	}
	out["serve_insert_drain"] = ServeResult{
		Tier: "binary", Endpoint: "insert", Batch: insBatch,
		AckedPoints:    acked.Load(),
		SnapshotPoints: snapPts,
		DrainExact:     snapPts == acked.Load() && acked.Load() > 0,
	}
	return out
}

// closedRes is one closed-loop measurement.
type closedRes struct {
	qps, pointsPerSec, p50, p99, p999 float64
}

// closedLoop runs conc workers back to back for dur; fn returns the
// points delivered by one request.
func closedLoop(dur time.Duration, conc int, fn func() (int, error)) closedRes {
	var reqs, points atomic.Int64
	latParts := make([][]float64, conc)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []float64
			for time.Since(start) < dur {
				t0 := time.Now()
				n, err := fn()
				if err != nil {
					continue
				}
				lats = append(lats, float64(time.Since(t0).Nanoseconds()))
				reqs.Add(1)
				points.Add(int64(n))
			}
			latParts[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	lats := pooled(latParts)
	return closedRes{
		qps:          float64(reqs.Load()) / elapsed,
		pointsPerSec: float64(points.Load()) / elapsed,
		p50:          percentile(lats, 0.50),
		p99:          percentile(lats, 0.99),
		p999:         percentile(lats, 0.999),
	}
}

func serveNames(opts) []string {
	return []string{
		"serve_classify_json_single",
		"serve_classify_binary_b64",
		"serve_sweep_binary_b1",
		"serve_sweep_binary_b16",
		"serve_sweep_binary_b64",
		"serve_sweep_binary_b256",
		"serve_overload_429",
		"serve_insert_drain",
	}
}

// checkServe gates BENCH_serve.json on correctness: both ramps found a
// knee, the overload run shed with 429s and recovered, and the drain run
// lost nothing it acked. The wire-tier throughput claim (binary batch >=
// 3x JSON single-point points/sec) is enforced only on full runs — quick
// CI boxes are too noisy to gate perf, which is the bench-smoke contract
// everywhere in this harness.
func checkServe(o opts, rows map[string]ServeResult) error {
	for _, key := range []string{"serve_classify_json_single", "serve_classify_binary_b64"} {
		w := rows[key]
		if w.KneeQPS <= 0 || w.P99Ns <= 0 || len(w.Steps) == 0 {
			return fmt.Errorf("workload %q found no saturation knee", key)
		}
	}
	over := rows["serve_overload_429"]
	if over.Rejected429 == 0 {
		return errors.New("overload run shed no 429s — backpressure is broken")
	}
	if !over.PostCheckOK {
		return errors.New("server did not serve cleanly after overload")
	}
	drain := rows["serve_insert_drain"]
	if !drain.DrainExact {
		return fmt.Errorf("drain lost acked inserts: acked=%d snapshot=%d", drain.AckedPoints, drain.SnapshotPoints)
	}
	if bin := rows["serve_classify_binary_b64"]; !o.quick && bin.BinaryVsJSONPoints < 3 {
		return fmt.Errorf("binary batch tier is only %.2fx JSON single-point throughput, want >= 3x", bin.BinaryVsJSONPoints)
	}
	return nil
}
