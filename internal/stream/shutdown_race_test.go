package stream

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"birch/internal/core"
	"birch/internal/vec"
)

// These tests pin the engine's shutdown and cancellation edges — the
// interleavings a network daemon (cmd/birchd) actually produces when a
// drain races in-flight reads, a client disconnects mid-backpressure, or
// two paths trigger Flush at once. All of them are meaningful mainly
// under -race (the CI race gate runs this package with it).

// TestCloseDuringClassifyBatch: readers running ClassifyBatch across the
// Close boundary must never observe torn state — each call either serves
// from a valid immutable snapshot or reports ok=false, and the answers
// for a fixed query set are identical before, during, and after Close.
func TestCloseDuringClassifyBatch(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2, CompactInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]vec.Vector, 2000)
	for i := range pts {
		pts[i] = vec.Vector{float64(i % 211), float64((i * 7) % 193)}
	}
	if err := eng.InsertBatch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	queries := pts[:64]
	refIdx, refDist, ok := eng.ClassifyBatch(queries, 2)
	if !ok {
		t.Fatal("no snapshot after Flush")
	}

	// Readers hammer ClassifyBatch while Close runs. After Flush no more
	// inserts happen, so the snapshot contents are final: every
	// successful call must reproduce the reference answers exactly.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx, dist, ok := eng.ClassifyBatch(queries, workers)
				if !ok {
					t.Error("ClassifyBatch lost the snapshot mid-close")
					return
				}
				for i := range idx {
					if idx[i] != refIdx[i] || dist[i] != refDist[i] {
						t.Errorf("query %d: (%d,%g) != reference (%d,%g)",
							i, idx[i], dist[i], refIdx[i], refDist[i])
						return
					}
				}
			}
		}(1 + r%3)
	}

	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against concurrent ClassifyBatch readers")
	}
	// Let the readers overlap the post-Close world too, then stop them.
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()

	if _, _, ok := eng.ClassifyBatch(queries, 2); !ok {
		t.Fatal("ClassifyBatch not usable after Close")
	}
}

// TestInsertBatchContextCancelMidMailbox: writers blocked inside
// InsertBatch on a full mailbox are cancelled mid-flight. Every call
// must return promptly with nil or ctx's error — never hang, never
// half-apply — and the engine must conserve exactly the accepted mass.
func TestInsertBatchContextCancelMidMailbox(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 1, MailboxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	const writers, batches, batchSize = 4, 32, 8
	accepted := make(chan int, writers*batches)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]vec.Vector, batchSize)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = vec.Vector{float64(w), float64(b*batchSize + i)}
				}
				switch err := eng.InsertBatch(ctx, batch); {
				case err == nil:
					accepted <- batchSize
				case errors.Is(err, context.Canceled):
					// The whole batch was rejected; none of its points
					// may surface in the tree.
				default:
					t.Errorf("writer %d: InsertBatch = %v, want nil or context.Canceled", w, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond) // let writers pile into the depth-1 mailbox
	cancel()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled InsertBatch writers did not unblock")
	}
	close(accepted)
	var want int64
	for n := range accepted {
		want += int64(n)
	}

	// Flush with a fresh context: the engine itself was never closed, so
	// it must still serve, covering exactly the accepted batches.
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after cancel: %v", err)
	}
	if got := eng.Snapshot().Points; got != want {
		t.Fatalf("snapshot covers %d points, %d were accepted (cancelled batch leaked or lost)", got, want)
	}
	if got := eng.Stats().Inserted; got != want {
		t.Fatalf("Stats.Inserted = %d, want %d", got, want)
	}
}

// TestDoubleFlush: Flush is safe to call concurrently with itself and
// with writers, and sequential flushes publish monotonically increasing
// generations with exact conservation at every quiescent point.
func TestDoubleFlush(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// Concurrent phase: writers and flushers race. Sync-and-publish rounds
	// serialize on the engine's round, so generations observed by any one
	// goroutine must never go backwards.
	const flushers, writers, perWriter = 3, 2, 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < flushers; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.Flush(ctx); err != nil {
					t.Errorf("concurrent Flush: %v", err)
					return
				}
				if g := eng.Stats().Generation; g < lastGen {
					t.Errorf("generation went backwards: %d -> %d", lastGen, g)
					return
				} else {
					lastGen = g
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := eng.Insert(ctx, vec.Vector{float64(w*perWriter + i), float64(i % 97)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Stop the flushers only after the writers are done so the final
	// concurrent flushes run against a quiesced write side too.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent flush/write phase did not finish")
	}

	// Sequential phase: back-to-back flushes must each publish a fresh,
	// strictly newer generation and keep covering the full mass.
	const total = writers * perWriter
	var prev int64
	for i := 0; i < 3; i++ {
		if err := eng.Flush(ctx); err != nil {
			t.Fatalf("sequential Flush %d: %v", i, err)
		}
		snap := eng.Snapshot()
		if snap == nil || snap.Points != total {
			t.Fatalf("flush %d: snapshot covers %v points, want %d", i, snap, total)
		}
		if snap.Gen <= prev {
			t.Fatalf("flush %d: generation %d did not advance past %d", i, snap.Gen, prev)
		}
		prev = snap.Gen
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
