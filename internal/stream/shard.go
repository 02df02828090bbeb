package stream

import (
	"fmt"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/pager"
	"birch/internal/vec"
)

// op is one mailbox message. Exactly one of the fields is meaningful per
// message; routing everything through the mailbox is what serializes
// control operations (sync, check, ckpt) with data operations (pts, sps)
// on the shard's single owner goroutine.
type op struct {
	pts   []vec.Vector       // dense points to insert
	sps   []vec.Sparse       // sparse points to insert
	sync  chan<- shardReport // request an owner-built summary report
	check chan<- error       // request a tree invariant check
	ckpt  chan<- error       // request a durable checkpoint (durable.go)
}

// shardReport is the owner-built, self-contained view of one shard: a
// cloned leaf-CF summary (safe to hand across goroutines) plus gauges.
type shardReport struct {
	sum   core.Summary
	stats ShardStats
}

// shard pairs one single-owner Phase 1 engine with its mailbox. Only the
// worker goroutine spawned by Engine.runShard touches eng; final is
// written by that worker just before it exits and read after wg.Wait in
// Close (a happens-before edge, so no lock is needed).
type shard struct {
	id    int
	eng   *core.Engine
	mail  chan op
	final shardReport

	// wal is the shard's write-ahead log (nil without a durable store).
	// Like eng it is single-owner: only the worker goroutine — and, after
	// wg.Wait, the closing goroutine — touches it. walBuf is the reusable
	// record-encoding scratch buffer; spDense is the reusable densification
	// scratch for logging sparse batches in the dense WAL record format.
	wal     *pager.WAL
	walBuf  []byte
	spDense vec.Vector
}

// runShard is the worker loop: drain the mailbox until Close closes it,
// then leave a final report for the closing goroutine.
func (e *Engine) runShard(s *shard) {
	defer e.wg.Done()
	for o := range s.mail {
		e.applyOp(s, o)
	}
	s.final = reportShard(s)
}

func (e *Engine) applyOp(s *shard, o op) {
	if len(o.pts) > 0 && s.wal != nil {
		// Write-ahead: log the batch before applying it, so the durable
		// log always covers the in-memory tree. Append failure degrades
		// durability, not availability — the batch is still applied and
		// the error surfaces through Err.
		s.walBuf = encodeBatch(s.walBuf[:0], o.pts)
		if _, err := s.wal.Append(s.walBuf); err != nil {
			e.setErr(fmt.Errorf("stream: shard %d wal append: %w", s.id, err))
		}
	}
	for _, p := range o.pts {
		if err := s.eng.Add(p); err != nil {
			e.setErr(fmt.Errorf("stream: shard %d insert: %w", s.id, err))
		}
	}
	if len(o.sps) > 0 {
		if s.wal != nil {
			// Sparse batches are logged in the dense record format (densified
			// through the reusable scratch), so recovery replays them through
			// the dense insert path with no format change. That is sound
			// because the sparse insert path is bit-identical to the dense one
			// by construction (internal/cf/sparse.go): the replayed tree
			// matches the live tree exactly.
			if s.spDense == nil {
				s.spDense = vec.New(e.cfg.Dim)
			}
			s.walBuf = encodeSparseBatch(s.walBuf[:0], o.sps, s.spDense)
			if _, err := s.wal.Append(s.walBuf); err != nil {
				e.setErr(fmt.Errorf("stream: shard %d wal append: %w", s.id, err))
			}
		}
		for _, sp := range o.sps {
			if err := s.eng.AddSparse(sp); err != nil {
				e.setErr(fmt.Errorf("stream: shard %d sparse insert: %w", s.id, err))
			}
		}
	}
	if o.check != nil {
		var err error
		if terr := s.eng.Tree().CheckInvariants(); terr != nil {
			err = fmt.Errorf("stream: shard %d: %w", s.id, terr)
		}
		o.check <- err
	}
	if o.ckpt != nil {
		o.ckpt <- e.checkpointShard(s)
	}
	if o.sync != nil {
		o.sync <- reportShard(s)
	}
}

// reportShard builds a shardReport on the owner goroutine. The snapshot
// decodes each leaf's contiguous scan block in one pass (AppendLeafCFs),
// cloning every CF so the summary stays valid while the shard keeps
// mutating.
func reportShard(s *shard) shardReport {
	t := s.eng.Tree()
	counters := s.eng.CounterStats()
	leaves := t.AppendLeafCFs(make([]cf.CF, 0, t.LeafEntries()))
	return shardReport{
		sum: core.Summary{CFs: leaves, Threshold: t.Threshold()},
		stats: ShardStats{
			Shard:         s.id,
			Points:        t.Points(),
			Subclusters:   t.LeafEntries(),
			Nodes:         t.Nodes(),
			Height:        t.Height(),
			Threshold:     t.Threshold(),
			Rebuilds:      counters.Rebuilds,
			OutlierSpills: counters.OutlierSpills,
			IO:            s.eng.Pager().Stats(),
		},
	}
}
