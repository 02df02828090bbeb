package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"birch/internal/core"
	"birch/internal/stream"
	"birch/internal/vec"
)

// This file is the concurrent-ingest benchmark behind BENCH_stream.json.
// The workload is the streaming engine's reason to exist: sustained
// point ingestion from W writer goroutines WHILE the engine serves
// classification queries from reader goroutines — a live cluster-serving
// system, not a batch job.
//
// Two implementations run the identical offered load (same points, same
// writer count, same read request pattern):
//
//   - mutex: the natural lock-based design — one core.Engine guarded by a
//     sync.RWMutex. Writers Lock per insert; each classify RLocks and
//     scans the leaf chain for the nearest subcluster centroid (zero
//     allocations, reading the freshest possible state). This is the
//     strongest simple baseline: finer-grained locking of a CF tree is
//     an open research problem, and any caching layer for the read path
//     is precisely the snapshot design under test.
//
//   - stream: internal/stream — writers fan out per-point to sharded CF
//     trees through mailboxes; readers classify lock-free against the
//     latest published snapshot (staleness bounded by the 50 ms
//     compaction interval); a background compactor merges shard
//     summaries and republishes global clusters throughout the run. The
//     stream rows' wall clock additionally includes the final Flush
//     drain, so every accepted point is in a shard tree when the timer
//     stops — parity with Add-returned-means-inserted on the mutex side.
//
// Configuration is a DS1-scale serving envelope (K = 100 clusters under
// a 256 KB tree budget), so the tree carries O(1000) subcluster
// summaries — which is what makes the baseline's read path expensive and
// writer-blocking, and is exactly the regime the snapshot design targets.
//
// Reported per workload: points/sec (wall clock across all writers),
// p50/p99 single-insert latency (sampled every 16th insert per writer),
// and for stream rows the throughput ratio over the mutex row at the
// same writer count. On a multi-core host the stream engine additionally
// gains write parallelism from sharding; on a single-CPU host the entire
// measured gap comes from synchronization and read-service costs.

// streamRow is one concurrent-ingest workload: wall-clock ingest
// throughput across all writers, sampled single-insert latency
// percentiles, the classify readers served during ingest, and for stream
// rows the throughput ratio over the mutex row at the same writer count.
type streamRow struct {
	Shape
	Workers        int     `json:"workers,omitempty"`
	Readers        int     `json:"readers,omitempty"`
	PointsPerSec   float64 `json:"points_per_sec,omitempty"`
	P50InsertNs    float64 `json:"p50_insert_ns,omitempty"`
	P99InsertNs    float64 `json:"p99_insert_ns,omitempty"`
	SpeedupVsMutex float64 `json:"speedup_vs_mutex,omitempty"`
}

type streamSpec struct {
	Name    string
	Engine  string // "mutex" or "stream"
	Writers int
	Readers int
}

func streamSpecs() []streamSpec {
	return []streamSpec{
		{"mutex_w1", "mutex", 1, 2},
		{"mutex_w8", "mutex", 8, 2},
		{"stream_w1", "stream", 1, 2},
		{"stream_w8", "stream", 8, 2},
	}
}

// streamBenchConfig is a serving-system resource envelope: a DS1-scale
// cluster count (K = 100, Table 3) under a 256 KB tree budget, so the CF
// tree legitimately carries thousands of fine-grained subcluster
// summaries (a live classifier is provisioned for resolution, not for a
// 1996 memory ceiling). That resolution is what gives the baseline's
// freshest-possible read — a leaf-chain scan — real work to do, and it
// prices both engines' inserts identically. Phase 3 input is capped so
// the stream engine's periodic global clustering stays a bounded slice
// of the compaction interval.
func streamBenchConfig() core.Config {
	cfg := core.DefaultConfig(2, streamBenchK)
	cfg.Refine = false
	cfg.Memory = 256 << 10
	cfg.Phase3InputSize = 256
	return cfg
}

const (
	latencySampleEvery = 16
	// Read load: each reader issues a burst of readBurst classifies then
	// sleeps 1 ms — a fixed offered rate of roughly
	// readBurst × readers × 1000 queries/sec against either engine.
	readBurst      = 192
	readSleep      = time.Millisecond
	compactEvery   = 50 * time.Millisecond
	streamPoints   = 200000
	streamBenchDim = 2
	streamBenchK   = 100 // DS1-scale cluster count (Table 3)
)

func runStream(o opts) map[string]streamRow {
	n := streamPoints / o.div()
	const seed = 301
	pts := blobs(seed, streamBenchDim, streamBenchK, n)

	specs := streamSpecs()
	fns := make([]func() rate, len(specs))
	for i, spec := range specs {
		fns[i] = func() rate {
			if spec.Engine == "mutex" {
				return runMutexIngest(pts, spec.Writers, spec.Readers)
			}
			return runStreamIngest(pts, spec.Writers, spec.Readers)
		}
	}
	best := bestOf(o.reps, fns...)
	out := make(map[string]streamRow)
	for i, spec := range specs {
		out[spec.Name] = streamRow{
			Shape:   Shape{streamBenchDim, n, seed},
			Workers: spec.Writers, Readers: spec.Readers,
			PointsPerSec: best[i].pps, P50InsertNs: best[i].p50, P99InsertNs: best[i].p99,
		}
	}

	// Speedup of the streaming engine over the mutex baseline at equal
	// writer counts — the number the concurrency design is accountable to.
	for _, writers := range []int{1, 8} {
		sName := fmt.Sprintf("stream_w%d", writers)
		s := out[sName]
		s.SpeedupVsMutex = ratio(s.PointsPerSec, out[fmt.Sprintf("mutex_w%d", writers)].PointsPerSec)
		out[sName] = s
	}
	return out
}

func streamNames(opts) []string {
	return specNames(streamSpecs(), func(s streamSpec) string { return s.Name })
}

func checkStream(_ opts, rows map[string]streamRow) error {
	return each(rows, func(_ string, w streamRow) bool { return positive(w.PointsPerSec, w.P99InsertNs) })
}

// driveIngest splits pts across writers that call insert per point while
// reader goroutines run classify bursts, and returns the writers'
// wall-clock rate with the latency of every latencySampleEvery-th insert
// per writer. drain runs inside the timed window once the writers finish.
// newReader builds one reader's classify function (unused when readers
// is 0).
func driveIngest(pts []vec.Vector, writers, readers int, insert func(vec.Vector) error, newReader func() func(vec.Vector), drain func()) rate {
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		classify := newReader()
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			q := vec.New(streamBenchDim)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < readBurst; j++ {
					q[0], q[1] = float64((j*25)%400), float64((i*25)%400)
					classify(q)
				}
				time.Sleep(readSleep)
			}
		}()
	}

	samples := make([][]float64, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		slice := pts[len(pts)*w/writers : len(pts)*(w+1)/writers]
		samples[w] = make([]float64, 0, len(slice)/latencySampleEvery+1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, p := range slice {
				sampled := i%latencySampleEvery == 0
				var t0 time.Time
				if sampled {
					t0 = time.Now()
				}
				err := insert(p)
				if sampled {
					samples[w] = append(samples[w], float64(time.Since(t0).Nanoseconds()))
				}
				if err != nil {
					fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	drain()
	elapsed := time.Since(start)
	close(stop)
	readerWG.Wait()

	lats := pooled(samples)
	return rate{
		pps: float64(len(pts)) / elapsed.Seconds(),
		p50: percentile(lats, 0.50),
		p99: percentile(lats, 0.99),
	}
}

// runMutexIngest is the lock-based baseline under the full serving load.
func runMutexIngest(pts []vec.Vector, writers, readers int) rate {
	eng, err := core.NewEngine(streamBenchConfig())
	if err != nil {
		fatal(err)
	}
	eng.SetExpectedN(int64(len(pts)))
	var mu sync.RWMutex
	insert := func(p vec.Vector) error {
		mu.Lock()
		defer mu.Unlock()
		return eng.Add(p)
	}
	newReader := func() func(vec.Vector) {
		scratch := vec.New(streamBenchDim)
		return func(q vec.Vector) {
			mu.RLock()
			defer mu.RUnlock()
			// Nearest-subcluster scan over the live leaf chain: the
			// freshest answer a lock-based design can give, at the cost of
			// holding the read lock for the scan.
			bestD := math.Inf(1)
			for leaf := eng.Tree().FirstLeaf(); leaf != nil; leaf = leaf.Next() {
				ents := leaf.Entries()
				for e := range ents {
					c := ents[e].CF.CentroidInto(scratch)
					if d := vec.SqDist(q, c); d < bestD {
						bestD = d
					}
				}
			}
		}
	}
	return driveIngest(pts, writers, readers, insert, newReader, func() {})
}

// runStreamIngest measures the sharded streaming engine under the
// identical offered load (same points, same per-point client calls, same
// read bursts).
func runStreamIngest(pts []vec.Vector, writers, readers int) rate {
	eng, err := stream.New(streamBenchConfig(), stream.Options{
		Shards:          writers,
		CompactInterval: compactEvery,
	})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	insert := func(p vec.Vector) error { return eng.Insert(ctx, p) }
	newReader := func() func(vec.Vector) {
		return func(q vec.Vector) { eng.Classify(q) } // lock-free snapshot read
	}
	r := driveIngest(pts, writers, readers, insert, newReader, func() {
		if err := eng.Flush(ctx); err != nil {
			fatal(err)
		}
	})
	if got := eng.Snapshot().Points; got != int64(len(pts)) {
		fatal(fmt.Errorf("stream bench: snapshot covers %d of %d points", got, len(pts)))
	}
	return r
}
