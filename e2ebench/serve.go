package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"birch/internal/core"
	"birch/internal/dataset"
	"birch/internal/pager"
	"birch/internal/quality"
	"birch/internal/server"
	"birch/internal/stream"
	"birch/internal/vec"
)

// Serving workloads drive an in-process birchd over loopback. The daemon
// is assembled exactly as cmd/birchd does with its default flags — one
// shard, 500 ms compaction, the 80 KB memory budget of the paper's
// defaults, MaxBatch 64, BatchWait 200 µs, admission queue 256, one
// classify worker — except -dim 8 -k 100, which match the generated data.
// Load comes from this process alone over at most two connections, one
// server.Client (the binary frame tier production clients use) each.
const (
	serveDim      = 8
	serveK        = 100
	serveBatch    = 64    // points per insert request; equals MaxBatch
	classifyRate  = 200.0 // serve_mixed classify requests per second
	insertRate    = 50.0  // serve_mixed insert requests per second
	compactPeriod = 500 * time.Millisecond
	gaussSep      = 8 // cluster separation in standard deviations
	gaussSD       = 1
	preloadChunk  = 4096
	// serveGeometrySeed fixes the mixture's centers and the preload; the
	// run's --seed deals the rest (serveInputs).
	serveGeometrySeed = 1
	serveTraceTick    = 5 * time.Millisecond
)

func serveConfig() core.Config { return core.DefaultConfig(serveDim, serveK) }

// daemon is one in-process birchd.
type daemon struct {
	eng     *stream.Engine
	backend server.Backend
	srv     *server.Server
	hs      *http.Server // set on traced passes: srv.Handler() behind the tracer
	served  chan error
	base    string
	stopped sync.Once
	stopErr error
}

func startDaemon(cfg core.Config, store string, tr *tracer) (*daemon, error) {
	var dur *stream.DurableOptions
	if store != "" {
		var fs pager.FS = pager.DirFS(store)
		if tr != nil {
			fs = tracedFS{FS: fs, t: tr}
		}
		dur = &stream.DurableOptions{FS: fs}
	}
	eng, _, err := stream.Open(cfg, stream.Options{Shards: 1, CompactInterval: compactPeriod}, dur)
	if err != nil {
		return nil, err
	}
	d := &daemon{eng: eng, served: make(chan error, 1)}
	d.backend = server.EngineBackend{Eng: eng, Cfg: cfg}
	if tr != nil {
		d.backend = tracedBackend{Backend: d.backend, t: tr}
	}
	d.srv = server.New(d.backend, server.Options{
		MaxBatch:        serveBatch,
		BatchWait:       200 * time.Microsecond,
		QueueDepth:      256,
		ClassifyWorkers: 1,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	d.base = "http://" + l.Addr().String()
	if tr == nil {
		go func() { d.served <- d.srv.Serve(l) }()
	} else {
		d.hs = &http.Server{Handler: tr.handler(d.srv.Handler())}
		go func() { d.served <- d.hs.Serve(l) }()
	}
	if err := server.NewClient(d.base).Healthz(context.Background()); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop drains the daemon (every acked insert lands in the engine, which
// publishes a final snapshot and, with a store, checkpoints) and waits
// for the serving goroutine to exit. Idempotent.
func (d *daemon) stop() error {
	d.stopped.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if d.hs != nil {
			d.stopErr = d.hs.Shutdown(ctx)
		}
		d.stopErr = errors.Join(d.stopErr, d.srv.Shutdown(ctx))
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			d.stopErr = errors.Join(d.stopErr, err)
		}
	})
	return d.stopErr
}

// serveInputs draws a serving workload's inputs from one Gaussian
// mixture (dataset.GaussianMixture, d = 8, K = 100) whose geometry and
// preload are fixed, so every seed serves the same settled model: the
// first preload points, in the generator's order, warm the daemon before
// the run. The seed shuffles the rest and deals the insert pool and the
// query sample from it, so queries follow the inserts' distribution
// without repeating them.
//
// The fixed preload is what makes the serving figures comparable across
// seeds. The shard tree's threshold estimate after its first rebuilds
// swings by an order of magnitude with the arrival order at this memory
// budget and dimension (from under 10 to over 40, the cluster spacing
// being ~23), and the threshold sets the cost of every later insert,
// compaction and classify. Settling it in set-up on one fixed prefix
// keeps the timed phase's work the same for every seed; the threshold it
// settles on is whatever the program computes for that prefix.
func serveInputs(seed int64, preload, pool, queries int) (pre, ins, qs flatPoints) {
	nPer := (preload + pool + queries + serveK - 1) / serveK
	pts := dataset.GaussianMixture(serveDim, serveK, nPer, gaussSep, gaussSD, serveGeometrySeed).Points
	rest := pts[preload:]
	rand.New(rand.NewSource(seed)).Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	return flatten(pts[:preload], serveDim), flatten(rest[:pool], serveDim), flatten(rest[pool:pool+queries], serveDim)
}

// preloadEngine inserts every point of pre in batches of preloadChunk.
func preloadEngine(ctx context.Context, eng *stream.Engine, pre flatPoints) error {
	for lo := 0; lo < pre.n(); lo += preloadChunk {
		hdr := make([]vec.Vector, min(preloadChunk, pre.n()-lo))
		pre.fill(hdr, lo)
		if err := eng.InsertBatch(ctx, hdr); err != nil {
			return err
		}
	}
	return nil
}

// sender is one load-generating connection: its own server.Client (hence
// its own keep-alive connection) and its own tallies.
type sender struct {
	cl        *server.Client
	hdr       []vec.Vector
	lats      []time.Duration // per successful request
	late      []time.Duration // open loop: actual send − scheduled send
	busy      time.Duration   // Σ (answer − actual send), successful requests
	attempted int64
	failed    int64
	acked     int64 // points acked by inserts
}

func newSender(base string, batch, expect int) *sender {
	return &sender{
		cl:   server.NewClient(base),
		hdr:  make([]vec.Vector, batch),
		lats: make([]time.Duration, 0, expect),
	}
}

func (s *sender) ownBytes() int64 { return int64(cap(s.lats)+cap(s.late)) * 8 }

// do issues one request. sched is when it was due (the actual send time
// for a closed loop); latency runs from sched to the answer. Errors —
// failures, 429 refusals, timeouts — count as failed and give no sample.
func (s *sender) do(ctx context.Context, tr *tracer, op string, sched time.Time, call func(context.Context) (int64, error)) {
	s.attempted++
	sent := time.Now()
	var acked int64
	var err error
	if tr == nil {
		acked, err = call(ctx)
	} else {
		acked, err = tr.clientRequest(ctx, op, s.hdr, call)
	}
	done := time.Now()
	if err != nil {
		s.failed++
		return
	}
	s.acked += acked
	s.lats = append(s.lats, done.Sub(sched))
	s.busy += done.Sub(sent)
}

func (s *sender) insert(ctx context.Context, tr *tracer, sched time.Time) {
	s.do(ctx, tr, "insert", sched, func(ctx context.Context) (int64, error) {
		return s.cl.InsertBatch(ctx, s.hdr, serveDim)
	})
}

func (s *sender) classify(ctx context.Context, tr *tracer, sched time.Time) {
	s.do(ctx, tr, "classify", sched, func(ctx context.Context) (int64, error) {
		_, _, err := s.cl.ClassifyBatch(ctx, s.hdr, serveDim)
		return 0, err
	})
}

// openLoop sends at a fixed interval from start until deadline, each
// request due at its slot regardless of how earlier ones fared; a send
// that finds its slot already past goes at once and records how late.
func (s *sender) openLoop(start, deadline time.Time, interval time.Duration, send func(i int, sched time.Time)) {
	for i := 0; ; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if !sched.Before(deadline) {
			return
		}
		sleepUntil(sched)
		s.late = append(s.late, time.Since(sched))
		send(i, sched)
	}
}

// tally folds the senders' counts into out.
func tally(out *outcome, senders ...*sender) (acked int64, own int64) {
	var late []time.Duration
	for _, s := range senders {
		out.attempted += s.attempted
		out.failed += s.failed
		acked += s.acked
		own += s.ownBytes()
		late = append(late, s.late...)
	}
	if len(late) > 0 {
		out.lateP99 = time.Duration(quantile(durationsMS(late), 0.99) * float64(time.Millisecond))
	}
	return acked, own
}

// requestExpiry bounds the timed phase's requests: one still unanswered
// requestExpiry after the run's end is abandoned and counted as timed out.
const requestExpiry = 5 * time.Second

// runCtx is the timed phase's request context.
func runCtx(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	return context.WithDeadline(ctx, deadline.Add(requestExpiry))
}

// serve_ingest: the write path. A closed loop on two connections — each
// sends its next request when the previous one is acked, like callers
// waiting on their writes — of 64-point binary /insert-batch requests of
// d = 8 points from 100 Gaussian clusters (dataset.GaussianMixture) into
// a birchd with a durable store (-store on a scratch dir; SyncEvery 0, so
// the WAL syncs at rotation, checkpoint and close). The store holds the
// fixed preload (serveInputs), so set-up is the daemon's warm restart:
// store open, checkpoint recovery, listening. Each request fills
// MaxBatch, so the coalescing timer is bypassed, and no classify runs:
// wire decode, server admission, the stream mailbox, the pager WAL and
// cftree inserts do nearly all the work. The run ends with Flush. Chosen
// as the workload a write-path change must move.
func runServeIngest(ctx context.Context, o opts, tr *tracer) (*outcome, error) {
	out := newOutcome("insert_p50_ms")
	cfg := serveConfig()
	pre, pool, queries := serveInputs(o.seed, o.sz.preload, o.sz.servePool, o.sz.probeQueries)

	store, err := os.MkdirTemp(o.dir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(store)
	if err := prepareStore(ctx, cfg, store, pre); err != nil {
		return nil, fmt.Errorf("prepare store: %w", err)
	}
	d, err := timeSetups(out, o.sz.restartReps,
		func() (*daemon, error) { return startDaemon(cfg, store, tr) },
		(*daemon).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop() // on error paths; the run itself stops d and checks the drain
	base := int64(pre.n())

	expect := int(o.seconds.Seconds()*5000) + 16
	senders := []*sender{newSender(d.base, serveBatch, expect), newSender(d.base, serveBatch, expect)}
	ctl := server.NewClient(d.base)
	watch := tr.watch(d.eng)
	before := d.eng.Stats()

	runtime.GC() // the set-ups' garbage is not the timed phase's work
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(o.seconds)
	rctx, cancel := runCtx(ctx, deadline)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				pool.fill(s.hdr, int(next.Add(1)-1)*serveBatch)
				s.insert(rctx, tr, time.Now())
			}
		}(s)
	}
	wg.Wait()
	if err := ctl.Flush(ctx); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	elapsed, cpu := time.Since(start), processCPU()-cpu0
	after := d.eng.Stats()
	watch.stop()
	st, err := timedStats(ctx, ctl, tr)
	if err != nil {
		return nil, err
	}

	acked, own := tally(out, senders...)
	out.memMB(own)
	runtime.KeepAlive(pre.data)
	runtime.KeepAlive(pool.data)
	runtime.KeepAlive(senders)
	var lats []time.Duration
	for _, s := range senders {
		lats = append(lats, s.lats...)
	}
	out.latencyMetrics("insert", lats)
	out.e2e["ingest_pts_per_s"] = float64(acked) / elapsed.Seconds()
	out.e2e["ingest_pts_per_cpu_s"] = float64(acked) / cpu.Seconds()

	probe, err := afterRun(ctx, out, d, cfg, o.sz.compactReps, base+acked, queries, 1)
	if err != nil {
		return nil, err
	}
	out.latencyMetrics("classify", probe)

	if tr != nil {
		sl := serveLayers{
			op: "insert", ptsPerReq: serveBatch, seconds: elapsed.Seconds(),
			acked: acked, insertedBase: before.Inserted, gen: senders,
			queries: queries.vectors(), wire: measureWire(pool, serveBatch, false),
			stats: st, before: before, after: after, watch: watch,
			from: start.Sub(tr.base), to: start.Add(elapsed).Sub(tr.base),
		}
		sl.fill(out, tr, d.eng.Snapshot())
	}

	if err := stopDaemon(out, d, base+acked); err != nil {
		return nil, err
	}
	// Gate: reopening the store recovers exactly the acked mass.
	re, rec, err := stream.Open(cfg, stream.Options{Shards: 1}, &stream.DurableOptions{FS: pager.DirFS(store)})
	if err != nil {
		return nil, fmt.Errorf("reopen store: %w", err)
	}
	rsnap := re.Snapshot()
	out.check("reopen_recovers_acked", rec.Points == base+acked && rsnap != nil && rsnap.Points == base+acked,
		"recovered %d points (snapshot %d) vs preload+acked %d", rec.Points, snapPoints(rsnap), base+acked)
	if err := re.Close(); err != nil {
		return nil, fmt.Errorf("close reopened store: %w", err)
	}
	return out, nil
}

// serve_mixed: reads beside writes. An open loop on two connections
// against an in-memory birchd (no -store), preloaded and flushed with the
// fixed preload (serveInputs): one connection sends single-point binary
// classifies at 200 req/s, the other 64-point inserts at 50 req/s, so
// the compactor republishes while reads run. Latency is timed from each
// request's scheduled send, so a stall also charges the requests queued
// behind it. A lone classify waits the full BatchWait for company, so the
// workload exercises server coalescing, kmeans.Finder and snapshot
// publication under writes, and never touches the WAL. Chosen as the
// workload a read-path or coalescing change must move.
func runServeMixed(ctx context.Context, o opts, tr *tracer) (*outcome, error) {
	out := newOutcome("classify_p50_ms")
	cfg := serveConfig()
	pre, pool, queries := serveInputs(o.seed, o.sz.preload, o.sz.servePool, o.sz.probeQueries)

	d, err := timeSetups(out, o.sz.setupReps, func() (*daemon, error) {
		d, err := startDaemon(cfg, "", tr)
		if err != nil {
			return nil, err
		}
		if err := preloadEngine(ctx, d.eng, pre); err != nil {
			return nil, errors.Join(err, d.stop())
		}
		if err := d.eng.Flush(ctx); err != nil {
			return nil, errors.Join(err, d.stop())
		}
		return d, nil
	}, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop() // on error paths; the run itself stops d and checks the drain

	nClassify := int(o.seconds.Seconds()*classifyRate) + 1
	nInsert := int(o.seconds.Seconds()*insertRate) + 1
	reader := newSender(d.base, 1, nClassify)
	writer := newSender(d.base, serveBatch, nInsert)
	ctl := server.NewClient(d.base)
	watch := tr.watch(d.eng)
	before := d.eng.Stats()

	runtime.GC() // the set-ups' garbage is not the timed phase's work
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(o.seconds)
	rctx, cancel := runCtx(ctx, deadline)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / classifyRate)
		reader.openLoop(start, deadline, interval, func(i int, sched time.Time) {
			queries.fill(reader.hdr, i)
			reader.classify(rctx, tr, sched)
		})
	}()
	go func() {
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / insertRate)
		writer.openLoop(start, deadline, interval, func(i int, sched time.Time) {
			pool.fill(writer.hdr, i*serveBatch)
			writer.insert(rctx, tr, sched)
		})
	}()
	wg.Wait()
	if err := ctl.Flush(ctx); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	elapsed, cpu := time.Since(start), processCPU()-cpu0
	after := d.eng.Stats()
	watch.stop()
	st, err := timedStats(ctx, ctl, tr)
	if err != nil {
		return nil, err
	}

	acked, own := tally(out, reader, writer)
	out.memMB(own)
	runtime.KeepAlive(pre.data)
	runtime.KeepAlive(pool.data)
	out.latencyMetrics("insert", writer.lats)
	out.latencyMetrics("classify", reader.lats)
	out.e2e["ingest_pts_per_s"] = float64(acked) / elapsed.Seconds()
	out.e2e["ingest_pts_per_cpu_s"] = float64(acked) / cpu.Seconds()

	want := int64(pre.n()) + acked
	if _, err := afterRun(ctx, out, d, cfg, o.sz.compactReps, want, queries, serveBatch); err != nil {
		return nil, err
	}

	if tr != nil {
		sl := serveLayers{
			op: "classify", ptsPerReq: 1, seconds: elapsed.Seconds(),
			acked: acked, insertedBase: before.Inserted, gen: []*sender{reader},
			queries: queries.vectors(), wire: measureWire(queries, 1, true),
			stats: st, before: before, after: after, watch: watch,
			from: start.Sub(tr.base), to: start.Add(elapsed).Sub(tr.base),
		}
		sl.fill(out, tr, d.eng.Snapshot())
	}
	if err := stopDaemon(out, d, want); err != nil {
		return nil, err
	}
	return out, nil
}

// timedStats reads the server's /stats at the end of a traced pass's timed
// phase, before the post-run checks send requests of their own.
func timedStats(ctx context.Context, ctl *server.Client, tr *tracer) (server.StatsPayload, error) {
	if tr == nil {
		return server.StatsPayload{}, nil
	}
	return ctl.Stats(ctx)
}

func snapPoints(s *stream.Snapshot) int64 {
	if s == nil {
		return -1
	}
	return s.Points
}

// afterRun runs the post-run checks and measurements on a daemon whose
// timed phase ended with Flush. want is the point mass the engine must
// hold: preload plus every acked insert.
//
// Flush publishes a snapshot covering every accepted point, but a
// compaction round that synced its shards before the Flush can publish
// after it, replacing that snapshot with an older one until the next
// round. afterRun prints a note when it sees such a stale snapshot, then
// waits for the compactor to publish a covering snapshot before it reads
// the served model: its quality (dbar), the cost of rebuilding it from
// the shard summaries (pipeline_s, median of reps) and the wire classify
// gate. It returns the gate's per-request latencies.
func afterRun(ctx context.Context, out *outcome, d *daemon, cfg core.Config, reps int, want int64, queries flatPoints, batch int) ([]time.Duration, error) {
	flushed := d.eng.Snapshot()
	if flushed == nil {
		return nil, errors.New("no snapshot published")
	}
	if flushed.Points != want {
		out.note("flush_visibility: snapshot after Flush covers %d of %d accepted points (stale compactor publish)",
			flushed.Points, want)
	}
	snap := flushed
	for wait := time.Now().Add(5 * compactPeriod); snap.Gen == flushed.Gen || snap.Points != want; snap = d.eng.Snapshot() {
		if time.Now().After(wait) {
			out.check("snapshot_settles", false, "no covering snapshot within %v of Flush: %d of %d points",
				5*compactPeriod, snap.Points, want)
			return nil, nil
		}
		time.Sleep(serveTraceTick)
	}
	out.check("clusters_published", len(snap.Clusters) > 0,
		"%d global clusters in the served snapshot", len(snap.Clusters))
	out.e2e["dbar"] = quality.WeightedAvgDiameter(snap.Clusters)

	sums, err := d.backend.Summaries(ctx)
	if err != nil {
		return nil, fmt.Errorf("summaries: %w", err)
	}
	var secs []float64
	var merged *stream.Snapshot
	for i := 0; i < reps; i++ {
		start := time.Now()
		merged, err = stream.MergeServingSnapshot(cfg, sums)
		if err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	out.e2e["pipeline_s"] = median(secs)
	out.samples["pipeline_s"] = reps
	out.layers["stream.compact_ms"] = 1000 * out.e2e["pipeline_s"]
	out.check("merge_conserves_mass", merged.Points == want,
		"MergeServingSnapshot over the shard summaries holds %d points, want %d", merged.Points, want)
	return wireClassifyGate(ctx, out, d, queries, batch)
}

// stopDaemon drains the daemon and checks its final snapshot — published
// by the drain after every shard worker has exited — covers want points.
func stopDaemon(out *outcome, d *daemon, want int64) error {
	if err := d.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	final := d.eng.Snapshot()
	out.check("final_snapshot_covers_acked", final != nil && final.Points == want,
		"final snapshot after drain holds %d points, want preload+acked %d", snapPoints(final), want)
	return nil
}

// wireClassifyGate classifies queries over the wire in batches of batch
// points, one request at a time, and checks every answer against
// in-process Snapshot.ClassifyBatch on index and Float64bits distance.
// It returns the per-request latencies.
func wireClassifyGate(ctx context.Context, out *outcome, d *daemon, queries flatPoints, batch int) ([]time.Duration, error) {
	cl := server.NewClient(d.base)
	all := queries.vectors()
	before := d.eng.Snapshot()
	wantIdx, wantDist, ok := before.ClassifyBatch(all, 1)
	if !ok {
		out.check("wire_classify_matches", false, "no snapshot to classify against")
		return nil, nil
	}
	lats := make([]time.Duration, 0, len(all)/batch+1)
	mismatch := 0
	for lo := 0; lo < len(all); lo += batch {
		part := all[lo:min(lo+batch, len(all))]
		start := time.Now()
		idx, dist, err := cl.ClassifyBatch(ctx, part, serveDim)
		lats = append(lats, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("wire classify: %w", err)
		}
		for i := range part {
			if idx[i] != wantIdx[lo+i] || math.Float64bits(dist[i]) != math.Float64bits(wantDist[lo+i]) {
				mismatch++
			}
		}
	}
	// No point arrived during the probe, so every snapshot the compactor
	// published meanwhile was rebuilt from the same summaries and must
	// answer identically.
	after := d.eng.Snapshot()
	out.check("wire_classify_matches", mismatch == 0 && after.Points == before.Points,
		"%d of %d wire answers differ from in-process ClassifyBatch (snapshot points %d before, %d after)",
		mismatch, len(all), before.Points, after.Points)
	return lats, nil
}

// prepareStore fills a fresh durable store with the preload and closes it,
// leaving a checkpoint for the daemon's warm restart.
func prepareStore(ctx context.Context, cfg core.Config, dir string, pre flatPoints) error {
	eng, _, err := stream.Open(cfg, stream.Options{Shards: 1}, &stream.DurableOptions{FS: pager.DirFS(dir)})
	if err != nil {
		return err
	}
	return errors.Join(preloadEngine(ctx, eng, pre), eng.Close())
}
