package server

import (
	"context"
	"errors"

	"birch/internal/vec"
)

// ErrNoSnapshot is returned to classify requests admitted before the
// backend has published its first snapshot (or when it has no
// centroids yet). Clients should insert or flush first.
var ErrNoSnapshot = errors.New("server: no snapshot published yet")

// insertReq is one admitted insert request parked in the insert queue.
// Exactly one of pts/sps is non-empty (a request body is one wire tier).
// The collector folds the points into the backend and posts exactly one
// value on reply. reply is buffered (capacity 1) by the handler, so the
// collector's send can never block on a handler that gave up.
type insertReq struct {
	pts   []vec.Vector
	sps   []vec.Sparse
	reply chan<- error
}

func (r *insertReq) points() int { return len(r.pts) + len(r.sps) }

// classifyReq is one admitted classify request. The collector fills
// idx/dist (allocated by the handler, one slot per point) and posts the
// batch error — nil, or ErrNoSnapshot — on reply.
type classifyReq struct {
	pts   []vec.Vector
	idx   []int
	dist  []float64
	reply chan<- error
}

func (r *classifyReq) points() int { return len(r.pts) }

// collect is the self-clocking batching loop both collectors run. It
// blocks for the first request, then takes without blocking every
// request already queued behind it, until maxBatch points are pending or
// the queue is empty, and flushes at once. Requests that arrive during a
// flush form the next batch, so batches grow with the flush time under
// load and an idle server never waits. Batches keep queue order. Once
// quit is closed it flushes whatever is still queued and returns: a
// request admitted before shutdown is always answered.
func collect[R interface{ points() int }](q <-chan R, quit <-chan struct{}, maxBatch int, flush func([]R)) {
	var batch []R
	for {
		var first R
		select {
		case first = <-q:
		case <-quit:
			select {
			case first = <-q:
			default:
				return
			}
		}
		batch = append(batch, first)
	gather:
		for n := first.points(); n < maxBatch; {
			select {
			case r := <-q:
				batch = append(batch, r)
				n += r.points()
			default:
				break gather
			}
		}
		flush(batch)
		clear(batch) // drop the references; the slice is reused
		batch = batch[:0]
	}
}

// runInsertCollector folds each insert batch into the backend and acks
// every contributor. Coalescing preserves admission order — the backend
// applies points in slice order — so a deterministic client driving
// requests sequentially sees the exact tree a direct stream.Engine would
// build.
func (s *Server) runInsertCollector() {
	defer s.collectWG.Done()
	var scratch []vec.Vector
	var spScratch []vec.Sparse
	collect(s.insertQ, s.quit, s.opts.MaxBatch, func(pending []*insertReq) {
		// Dense and sparse points coalesce into separate engine batches
		// (one backend call per tier per flush). A sequential client still
		// sees admission order: it waits for each ack before sending the
		// next request, so two of its requests never share a flush.
		scratch, spScratch = scratch[:0], spScratch[:0]
		for _, r := range pending {
			scratch = append(scratch, r.pts...)
			spScratch = append(spScratch, r.sps...)
		}
		var denseErr, sparseErr error
		if len(scratch) > 0 {
			denseErr = s.b.InsertBatch(context.Background(), scratch)
			if denseErr == nil {
				s.acceptedPts.Add(int64(len(scratch)))
			}
		}
		if len(spScratch) > 0 {
			sparseErr = s.b.InsertSparseBatch(context.Background(), spScratch)
			if sparseErr == nil {
				s.acceptedPts.Add(int64(len(spScratch)))
			}
		}
		s.insertFlushes.Add(1)
		s.insertBatchedPts.Add(int64(len(scratch) + len(spScratch)))
		for _, r := range pending {
			// Each request is one tier, so it gets its own tier's verdict.
			if len(r.sps) > 0 {
				r.reply <- sparseErr
			} else {
				r.reply <- denseErr
			}
		}
	})
}

// runClassifyCollector is the read-side twin: it answers each classify
// batch with one ClassifyBatch against a single snapshot load, then
// scatters the per-point results back. Per-point outputs are
// position-independent, so coalescing never changes any client's answer
// — it only amortizes the snapshot load and scan setup.
func (s *Server) runClassifyCollector() {
	defer s.collectWG.Done()
	var scratch []vec.Vector
	collect(s.classifyQ, s.quit, s.opts.MaxBatch, func(pending []*classifyReq) {
		scratch = scratch[:0]
		for _, r := range pending {
			scratch = append(scratch, r.pts...)
		}
		snap := s.b.Snapshot()
		idx, dist, ok := snap.ClassifyBatch(scratch, s.opts.ClassifyWorkers)
		s.classifyFlushes.Add(1)
		s.classifyBatchedPts.Add(int64(len(scratch)))
		off := 0
		for _, r := range pending {
			if ok {
				copy(r.idx, idx[off:off+len(r.pts)])
				copy(r.dist, dist[off:off+len(r.pts)])
				r.reply <- nil
			} else {
				r.reply <- ErrNoSnapshot
			}
			off += len(r.pts)
		}
	})
}
