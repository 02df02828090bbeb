// Package stream implements the concurrent streaming ingestion engine:
// an always-on, thread-safe serving layer over BIRCH's Phase 1.
//
// The design exploits exactly the property that makes BIRCH
// parallel-friendly — the CF Additivity Theorem (Section 4.1): shards
// accumulate independent CF trees and merge losslessly by CF addition.
//
//	writers ──Insert──▶ per-shard mailboxes ──▶ W shard workers
//	                    (buffered, backpressure)  (each owns one core.Engine)
//	                                                   │ sync (leaf-CF clones)
//	                                                   ▼
//	readers ◀─atomic.Pointer[Snapshot]─ compactor: pairwise CF-merge
//	         (lock-free Classify/Centroids)  + condense + global cluster
//
// Ownership rules:
//
//   - Each shard's core.Engine and CF tree are touched ONLY by that
//     shard's worker goroutine. All cross-goroutine requests (inserts,
//     summary snapshots, invariant checks, checkpoints) travel
//     through the shard's mailbox, so they serialize with data ops.
//   - A published *Snapshot is immutable: every CF and vector in it is a
//     clone taken on the owning worker (leaf CFs) or built fresh by the
//     compactor (merged subclusters, cluster centroids). Readers hold it
//     across arbitrarily many publications without seeing torn state.
//   - Shard engines run with outlier handling off: a serving layer must
//     never silently drop mass, and conservation (snapshot Σ N == points
//     accepted) is asserted by the test battery. Memory pressure is
//     handled by threshold-raising rebuilds instead, per the
//     Reducibility Theorem.
//
// The package carries two whole-package lint contracts (DESIGN.md §12):
// deterministic (identical input batches per shard produce bit-identical
// snapshots regardless of worker scheduling) and leakcheck (no goroutine
// may block forever on a channel send once Close has run).
//
//birchlint:deterministic
//birchlint:leakcheck
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"birch/internal/core"
	"birch/internal/vec"
)

// ErrClosed is returned by operations on a closed Engine.
var ErrClosed = errors.New("stream: engine closed")

// Options tunes the concurrency shape of the engine. The zero value is
// usable: GOMAXPROCS shards, a 256-batch mailbox per shard, and no
// background compaction timer (snapshots then publish only on Flush and
// Close).
type Options struct {
	// Shards is W, the number of independent CF-tree shard workers the
	// insert stream fans out to. 0 means GOMAXPROCS.
	Shards int
	// MailboxDepth is the per-shard queue capacity in batches
	// (default 256). A full mailbox applies backpressure: Insert blocks
	// until the worker drains or the caller's context is done.
	MailboxDepth int
	// CompactInterval is the period of the background compactor, which
	// merges the shard summaries and republishes the global snapshot.
	// 0 disables the timer; Flush and Close still publish.
	CompactInterval time.Duration
}

// Engine is a thread-safe streaming BIRCH front end. Writers fan points
// out to W shard engines through batched mailboxes; readers classify
// against an atomically-published immutable snapshot without taking any
// lock. See the package comment for the ownership rules.
type Engine struct {
	cfg  core.Config
	opts Options

	// dur is non-nil when the engine was opened on a durable store
	// (Open with DurableOptions); see durable.go.
	dur *durableState

	shards []*shard
	rr     atomic.Uint64 // round-robin fan-out cursor

	// mu guards closed and brackets mailbox sends so Close can safely
	// close the mailbox channels once no sender is in flight.
	mu     sync.RWMutex
	closed bool

	quit      chan struct{} // closed by Close: wakes blocked senders, stops the compactor
	closeOnce sync.Once
	wg        sync.WaitGroup // shard workers
	compactWG sync.WaitGroup

	snap atomic.Pointer[Snapshot]
	// round is a one-slot semaphore held across a whole sync-and-publish
	// round (Flush, a compaction round, Close's final publish), so a
	// snapshot built from an earlier shard sync can never replace one
	// built from a later sync. Readers never take it.
	round chan struct{}
	gen   int64 // publication generation, guarded by round

	inserted    atomic.Int64 // points accepted by Insert/InsertBatch
	compactions atomic.Int64 // snapshots published

	// Serving-health gauges: ticks counts compactor timer fires over the
	// engine's lifetime; pubTick records the tick count at the moment the
	// current snapshot was published. Their difference is how many
	// compaction periods the published view has been allowed to go stale
	// (0 while every tick republishes successfully).
	ticks   atomic.Int64
	pubTick atomic.Int64

	err atomic.Pointer[engineError] // first asynchronous shard error
}

type engineError struct{ err error }

const defaultMailboxDepth = 256

// New builds and starts a streaming engine: W shard workers plus, when
// opts.CompactInterval > 0, a background compactor. cfg is the standard
// pipeline configuration; each shard runs Phase 1 with an equal slice of
// cfg.Memory and outlier handling off (see the package comment). The
// global clustering knobs (K, GlobalAlgorithm, Phase2/Phase3InputSize)
// shape the published snapshots.
func New(cfg core.Config, opts Options) (*Engine, error) {
	e, _, err := Open(cfg, opts, nil)
	return e, err
}

// Insert streams one point into the engine. The point is cloned, so the
// caller may reuse p's backing array immediately. Insert blocks when the
// target shard's mailbox is full (backpressure) until the worker drains,
// ctx is done, or the engine closes. For high-throughput ingestion use
// InsertBatch, which amortizes the per-send synchronization across the
// whole batch.
func (e *Engine) Insert(ctx context.Context, p vec.Vector) error {
	if len(p) != e.cfg.Dim {
		return fmt.Errorf("stream: point dimension %d, config dimension %d", len(p), e.cfg.Dim)
	}
	s := e.pickShard()
	if err := e.send(ctx, s, op{pts: []vec.Vector{p.Clone()}}); err != nil {
		return err
	}
	e.inserted.Add(1)
	return nil
}

// InsertBatch streams a batch of points as one mailbox message to one
// shard (batches round-robin across shards), paying one synchronization
// for the whole batch. The points are cloned into a single fresh backing
// array. An error means the entire batch was rejected.
func (e *Engine) InsertBatch(ctx context.Context, pts []vec.Vector) error {
	if len(pts) == 0 {
		return nil
	}
	dim := e.cfg.Dim
	for i, p := range pts {
		if len(p) != dim {
			return fmt.Errorf("stream: batch point %d dimension %d, config dimension %d", i, len(p), dim)
		}
	}
	backing := make([]float64, len(pts)*dim)
	clones := make([]vec.Vector, len(pts))
	for i, p := range pts {
		dst := backing[i*dim : (i+1)*dim]
		copy(dst, p)
		clones[i] = dst
	}
	s := e.pickShard()
	if err := e.send(ctx, s, op{pts: clones}); err != nil {
		return err
	}
	e.inserted.Add(int64(len(pts)))
	return nil
}

// InsertSparse streams one sparse point into the engine. The point is
// validated (Validate) and cloned, so the caller may reuse sp's index
// and value slices immediately. Inside the shard the point rides the
// sparse fast path (gather descent below the measured density
// crossover), which is bit-identical to inserting the densified point.
func (e *Engine) InsertSparse(ctx context.Context, sp vec.Sparse) error {
	if sp.Dim() != e.cfg.Dim {
		return fmt.Errorf("stream: sparse point dimension %d, config dimension %d", sp.Dim(), e.cfg.Dim)
	}
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("stream: sparse point: %w", err)
	}
	s := e.pickShard()
	if err := e.send(ctx, s, op{sps: []vec.Sparse{sp.Clone()}}); err != nil {
		return err
	}
	e.inserted.Add(1)
	return nil
}

// InsertSparseBatch streams a batch of sparse points as one mailbox
// message to one shard, the sparse analogue of InsertBatch: one
// synchronization per batch, every point validated up front, and all
// clones packed into a single pair of fresh backing arrays. An error
// means the entire batch was rejected.
func (e *Engine) InsertSparseBatch(ctx context.Context, sps []vec.Sparse) error {
	if len(sps) == 0 {
		return nil
	}
	dim := e.cfg.Dim
	nnz := 0
	for i, sp := range sps {
		if sp.Dim() != dim {
			return fmt.Errorf("stream: batch sparse point %d dimension %d, config dimension %d", i, sp.Dim(), dim)
		}
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("stream: batch sparse point %d: %w", i, err)
		}
		nnz += sp.NNZ()
	}
	idxB := make([]int32, nnz)
	valB := make([]float64, nnz)
	clones := make([]vec.Sparse, len(sps))
	off := 0
	for i, sp := range sps {
		n := sp.NNZ()
		copy(idxB[off:off+n], sp.Idx)
		copy(valB[off:off+n], sp.Val)
		clones[i] = vec.Sparse{D: dim, Idx: idxB[off : off+n : off+n], Val: valB[off : off+n : off+n]}
		off += n
	}
	s := e.pickShard()
	if err := e.send(ctx, s, op{sps: clones}); err != nil {
		return err
	}
	e.inserted.Add(int64(len(sps)))
	return nil
}

func (e *Engine) pickShard() *shard {
	return e.shards[int((e.rr.Add(1)-1)%uint64(len(e.shards)))]
}

// send delivers one op to shard s, honoring backpressure, context
// cancellation and engine shutdown. The read lock brackets the channel
// send so Close (which takes the write lock) never closes a mailbox with
// a sender in flight.
func (e *Engine) send(ctx context.Context, s *shard, o op) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case s.mail <- o:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return ErrClosed
	}
}

// Flush waits until every point accepted before the call has been folded
// into its shard's tree, then merges the shard summaries and publishes a
// fresh snapshot. It returns the first asynchronous shard error, if any.
func (e *Engine) Flush(ctx context.Context) error {
	if err := e.acquireRound(ctx); err != nil {
		return err
	}
	defer e.releaseRound()
	reports, err := e.syncShards(ctx)
	if err != nil {
		return err
	}
	e.publish(reports)
	return e.Err()
}

// acquireRound takes the sync-and-publish round, giving up when ctx is
// done or the engine closes.
func (e *Engine) acquireRound(ctx context.Context) error {
	select {
	case e.round <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.quit:
		return ErrClosed
	}
}

func (e *Engine) releaseRound() { <-e.round }

// syncShards sends a sync op through every shard mailbox — so the reply
// reflects all previously queued work — and collects the owner-built
// reports, in shard order for a deterministic reduction shape.
func (e *Engine) syncShards(ctx context.Context) ([]shardReport, error) {
	return broadcast(ctx, e, func(r chan<- shardReport) op { return op{sync: r} })
}

// broadcast sends the op built by mk through every shard mailbox, so each
// shard answers only after all work queued before it, and returns the
// replies in shard order: each shard answers on its own buffered channel,
// which keeps the result independent of worker scheduling. It gives up
// when ctx is done or the engine closes.
func broadcast[R any](ctx context.Context, e *Engine, mk func(chan<- R) op) ([]R, error) {
	replies := make([]chan R, len(e.shards))
	for i, s := range e.shards {
		replies[i] = make(chan R, 1)
		if err := e.send(ctx, s, mk(replies[i])); err != nil {
			return nil, err
		}
	}
	out := make([]R, len(e.shards))
	for i := range replies {
		select {
		case out[i] = <-replies[i]:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-e.quit:
			return nil, ErrClosed
		}
	}
	return out, nil
}

// Close drains and stops the engine: it stops the compactor, rejects new
// inserts, lets every shard worker finish its queued work, publishes a
// final snapshot, and returns the first asynchronous shard error, if
// any. Close is idempotent; read-side calls (Classify, Centroids, Stats,
// Snapshot) remain valid after it.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		close(e.quit) // wakes blocked senders, stops the compactor
		e.compactWG.Wait()
		e.mu.Lock()
		e.closed = true
		for _, s := range e.shards {
			close(s.mail)
		}
		e.mu.Unlock()
		e.wg.Wait()
		// Workers have exited, so shard state is quiesced: take the final
		// durability barrier (checkpoint + WAL close) inline.
		e.closeDurable()
		reports := make([]shardReport, len(e.shards))
		for i, s := range e.shards {
			reports[i] = s.final
		}
		e.round <- struct{}{} // an in-flight Flush publishes first
		e.publish(reports)
		e.releaseRound()
	})
	return e.Err()
}

// ShardSummaries returns the owner-built leaf-CF summary of every shard,
// in shard order — the engine's side of the wire-level CF merge: a
// coordinator (internal/server) fetches these from each birchd daemon
// and feeds them to MergeServingSnapshot. Like Flush it serializes with
// all previously accepted work, so the summaries cover every point whose
// Insert/InsertBatch returned before the call.
func (e *Engine) ShardSummaries(ctx context.Context) ([]core.Summary, error) {
	reports, err := e.syncShards(ctx)
	if err != nil {
		return nil, err
	}
	sums := make([]core.Summary, len(reports))
	for i, r := range reports {
		sums[i] = r.sum
	}
	return sums, nil
}

// Err returns the first asynchronous shard error, or nil.
func (e *Engine) Err() error {
	if p := e.err.Load(); p != nil {
		return p.err
	}
	return nil
}

func (e *Engine) setErr(err error) {
	e.err.CompareAndSwap(nil, &engineError{err})
}

// CheckInvariants verifies the structural invariants of every shard tree
// (cftree.CheckInvariants) plus the mass consistency of the published
// snapshot. While the engine is open the checks run on each shard's
// worker goroutine, so it is safe to call concurrently with writers;
// after Close it runs inline. It is a test/debug aid, O(total tree size).
func (e *Engine) CheckInvariants() error {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		// Close marks the engine closed before the workers finish draining;
		// wait for them so the direct tree reads below cannot race. Workers
		// are only ever registered at construction, so Wait here is safe.
		e.wg.Wait()
		for _, s := range e.shards {
			if err := s.eng.Tree().CheckInvariants(); err != nil {
				return fmt.Errorf("stream: shard %d: %w", s.id, err)
			}
		}
		return e.checkSnapshotMass()
	}
	errs, err := broadcast(context.Background(), e, func(r chan<- error) op { return op{check: r} })
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return e.checkSnapshotMass()
}

// checkSnapshotMass asserts the published snapshot's internal accounting:
// subcluster mass equals the recorded total, and the global clusters
// (when present) partition exactly that mass.
func (e *Engine) checkSnapshotMass() error {
	s := e.snap.Load()
	if s == nil {
		return nil
	}
	var sub int64
	for i := range s.Subclusters {
		if err := s.Subclusters[i].Validate(); err != nil {
			return fmt.Errorf("stream: snapshot subcluster %d: %w", i, err)
		}
		sub += s.Subclusters[i].N
	}
	if sub != s.Points {
		return fmt.Errorf("stream: snapshot subcluster mass %d != recorded points %d", sub, s.Points)
	}
	if len(s.Clusters) > 0 {
		var cl int64
		for i := range s.Clusters {
			cl += s.Clusters[i].N
		}
		if cl != s.Points {
			return fmt.Errorf("stream: snapshot cluster mass %d != recorded points %d", cl, s.Points)
		}
	}
	return nil
}
