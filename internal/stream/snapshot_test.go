package stream

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"birch/internal/core"
	"birch/internal/vec"
)

// goldenCopy deep-copies the observable surface of a snapshot so later
// mutations anywhere would be detectable by comparison.
type goldenCopy struct {
	gen       int64
	points    int64
	threshold float64
	centroids [][]float64
	subN      []int64
	subLS     [][]float64
	subSS     []float64
}

func copySnapshot(s *Snapshot) goldenCopy {
	g := goldenCopy{gen: s.Gen, points: s.Points, threshold: s.Threshold}
	for _, c := range s.Centroids {
		g.centroids = append(g.centroids, append([]float64(nil), c...))
	}
	for i := range s.Subclusters {
		g.subN = append(g.subN, s.Subclusters[i].N)
		g.subLS = append(g.subLS, append([]float64(nil), s.Subclusters[i].LS...))
		g.subSS = append(g.subSS, s.Subclusters[i].SS)
	}
	return g
}

func (g goldenCopy) equal(s *Snapshot) bool {
	if g.gen != s.Gen || g.points != s.Points || g.threshold != s.Threshold {
		return false
	}
	if len(g.centroids) != len(s.Centroids) || len(g.subN) != len(s.Subclusters) {
		return false
	}
	for i, c := range s.Centroids {
		for d := range c {
			if g.centroids[i][d] != c[d] {
				return false
			}
		}
	}
	for i := range s.Subclusters {
		if g.subN[i] != s.Subclusters[i].N || g.subSS[i] != s.Subclusters[i].SS {
			return false
		}
		for d := range s.Subclusters[i].LS {
			if g.subLS[i][d] != s.Subclusters[i].LS[d] {
				return false
			}
		}
	}
	return true
}

// TestSnapshotImmutableAcrossCompaction is satellite 5: a reader that
// grabbed a snapshot before further ingestion and compaction must keep
// seeing exactly the tree it grabbed — golden-asserted down to individual
// CF components and centroid coordinates — while new publications with
// higher generations appear alongside it.
func TestSnapshotImmutableAcrossCompaction(t *testing.T) {
	cfg := core.DefaultConfig(2, 6)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2, CompactInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	mkBatch := func(base, n int) []vec.Vector {
		batch := make([]vec.Vector, n)
		for i := range batch {
			g := base + i
			batch[i] = vec.Vector{float64(g % 127), float64((g * 17) % 131)}
		}
		return batch
	}

	if err := eng.InsertBatch(ctx, mkBatch(0, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	held := eng.Snapshot()
	if held == nil || held.Points != 2000 {
		t.Fatalf("held snapshot = %+v, want 2000 points", held)
	}
	golden := copySnapshot(held)

	// Concurrently ingest more data (driving the 1ms compactor) while a
	// verifier goroutine continuously re-checks the held snapshot against
	// its golden copy.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !golden.equal(held) {
				t.Error("held snapshot mutated during concurrent compaction")
				return
			}
		}
	}()
	for round := 0; round < 20; round++ {
		if err := eng.InsertBatch(ctx, mkBatch(2000+round*200, 200)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if !golden.equal(held) {
		t.Fatal("held snapshot mutated (final check)")
	}
	cur := eng.Snapshot()
	if cur.Gen <= held.Gen {
		t.Fatalf("current generation %d not past held generation %d", cur.Gen, held.Gen)
	}
	if cur.Points != 2000+20*200 {
		t.Fatalf("current snapshot covers %d points, want %d", cur.Points, 2000+20*200)
	}
	// The held snapshot keeps classifying with its old centroids.
	if _, _, ok := held.Classify(vec.Vector{3, 4}); !ok {
		t.Fatal("held snapshot cannot classify")
	}
}

// TestSnapshotNilBeforeFirstPublish pins the cold-start behavior of the
// lock-free read paths: before any Flush or compaction, reads answer
// "nothing yet" instead of blocking or panicking.
func TestSnapshotNilBeforeFirstPublish(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if s := eng.Snapshot(); s != nil {
		t.Fatalf("Snapshot before publish = %+v, want nil", s)
	}
	if _, _, ok := eng.Classify(vec.Vector{1, 2}); ok {
		t.Fatal("Classify reported ok before any publication")
	}
	if c := eng.Centroids(); c != nil {
		t.Fatalf("Centroids before publish = %v, want nil", c)
	}
	st := eng.Stats()
	if st.Generation != 0 || st.Published != 0 {
		t.Fatalf("Stats before publish = %+v, want zero generation/published", st)
	}
}

// TestSnapshotClassifyAllocs is the dynamic half of the serving-path
// zero-allocation contract: Engine.Classify and Snapshot.Classify carry
// //birchlint:hotpath (snapshot.go), so the static hotpath pass rejects
// allocation-inducing constructs there, and this AllocsPerRun gate
// proves the compiled steady state matches.
func TestSnapshotClassifyAllocs(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	batch := make([]vec.Vector, 2000)
	for i := range batch {
		batch[i] = vec.Vector{float64(i % 127), float64((i * 17) % 131)}
	}
	if err := eng.InsertBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap == nil || len(snap.Centroids) == 0 {
		t.Fatal("no centroids after flush")
	}

	q := vec.Vector{3, 4}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, _, ok := snap.Classify(q); !ok {
			t.Fatal("snapshot Classify not ok")
		}
	}); allocs != 0 {
		t.Errorf("Snapshot.Classify allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, _, ok := eng.Classify(q); !ok {
			t.Fatal("engine Classify not ok")
		}
	}); allocs != 0 {
		t.Errorf("Engine.Classify allocates %v per call, want 0", allocs)
	}
}

// TestSnapshotClassifyBatch pins the batch serving path to the scalar
// one on a published snapshot, for several worker counts, and checks the
// pre-publication ok=false contract.
func TestSnapshotClassifyBatch(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	queries := make([]vec.Vector, 300)
	for i := range queries {
		queries[i] = vec.Vector{float64(i % 97), float64((i * 13) % 89)}
	}

	if _, _, ok := eng.ClassifyBatch(queries, 4); ok {
		t.Fatal("ClassifyBatch reported ok before any publication")
	}

	batch := make([]vec.Vector, 2000)
	for i := range batch {
		batch[i] = vec.Vector{float64(i % 127), float64((i * 17) % 131)}
	}
	if err := eng.InsertBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	snap := eng.Snapshot()
	if snap == nil || len(snap.Centroids) == 0 {
		t.Fatal("no centroids after flush")
	}
	for _, w := range []int{1, 2, 8} {
		idx, dist, ok := snap.ClassifyBatch(queries, w)
		if !ok {
			t.Fatalf("W=%d: batch not ok on a published snapshot", w)
		}
		for i, q := range queries {
			wi, wd, wok := snap.Classify(q)
			if !wok || idx[i] != wi || math.Float64bits(dist[i]) != math.Float64bits(wd) {
				t.Fatalf("W=%d query %d: batch (%d,%x), scalar (%d,%x, ok=%v)", w, i,
					idx[i], math.Float64bits(dist[i]), wi, math.Float64bits(wd), wok)
			}
		}
	}

	// The engine-level passthrough serves the same snapshot.
	idx, dist, ok := eng.ClassifyBatch(queries, 4)
	if !ok {
		t.Fatal("engine ClassifyBatch not ok after flush")
	}
	for i, q := range queries {
		wi, wd, _ := snap.Classify(q)
		if idx[i] != wi || math.Float64bits(dist[i]) != math.Float64bits(wd) {
			t.Fatalf("engine batch query %d: (%d,%x), want (%d,%x)", i,
				idx[i], math.Float64bits(dist[i]), wi, math.Float64bits(wd))
		}
	}
}

// TestFlushSnapshotNeverStale races a compaction round against Flush. The
// round syncs the shard before an acked batch and Flush syncs after it;
// whichever publishes last, the snapshot left behind must cover every
// acked point. The shard worker is parked on an unbuffered invariant-
// check reply so the ops queue in a known order, and GOMAXPROCS(1) makes
// the scheduler run the goroutine readied last (Flush) first — the order
// in which an unserialized compaction publishes its older view on top.
func TestFlushSnapshotNeverStale(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 1, MailboxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	s := eng.shards[0]
	waitQueued := func(n int, limit time.Duration) {
		deadline := time.Now().Add(limit)
		for len(s.mail) != n && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	pts := latticePoints(400)
	var acked int64
	for round := 0; round*16 < len(pts); round++ {
		gate := make(chan error)
		if err := eng.send(ctx, s, op{check: gate}); err != nil {
			t.Fatal(err)
		}
		waitQueued(0, time.Second) // the worker holds the check op
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			eng.compact()
		}()
		waitQueued(1, time.Second) // compaction sync queued
		if err := eng.InsertBatch(ctx, pts[round*16:(round+1)*16]); err != nil {
			t.Fatal(err)
		}
		acked += 16
		var flushErr error
		go func() {
			defer wg.Done()
			flushErr = eng.Flush(ctx)
		}()
		waitQueued(3, 50*time.Millisecond) // Flush's sync, unless it waits its turn
		if err := <-gate; err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if flushErr != nil {
			t.Fatal(flushErr)
		}
		if got := eng.Snapshot().Points; got != acked {
			t.Fatalf("round %d: snapshot after Flush covers %d points, acked %d", round, got, acked)
		}
	}
}
