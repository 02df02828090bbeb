package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"birch/internal/cf"
	"birch/internal/cftree"
	"birch/internal/pager"
	"birch/internal/vec"
)

// Engine drives the incremental Phase 1 of BIRCH and carries the state the
// later phases consume. Points can be streamed one at a time through Add;
// FinishPhase1 performs the final outlier re-absorption of Figure 2.
type Engine struct {
	cfg Config
	pgr *pager.Pager

	tree *cftree.Tree
	est  thresholdEstimator

	// outlierBuf mirrors the contents of the simulated outlier disk: both
	// potential outliers extracted during rebuilds and, with delay-split
	// on, points spilled to postpone a rebuild. Entries are owned by the
	// buffer (spill sites clone), never aliases of caller memory.
	outlierBuf []cf.CF

	// scratch is the reusable query CF that Add streams each point
	// through, so the absorb path performs no heap allocation.
	scratch cf.CF

	// The monotone counters are atomics so an observer goroutine (the
	// streaming engine's Stats path) can sample them while the owner
	// goroutine streams points through Add. Everything else on Engine
	// remains single-owner.
	scanned   atomic.Int64 // points fed through Add / AddCF
	spills    atomic.Int64
	rebuilds  atomic.Int64
	discarded atomic.Int64 // points dropped as real outliers at the end
	started   time.Time
	finished  bool
}

// pagerConfig derives the resource budgets one engine charges against.
func pagerConfig(cfg Config) pager.Config {
	diskBudget := 0
	if cfg.OutlierHandling {
		diskBudget = int(float64(cfg.Memory) * cfg.OutlierDiskPct / 100)
	}
	return pager.Config{
		PageSize:     cfg.PageSize,
		MemoryBudget: cfg.Memory,
		DiskBudget:   diskBudget,
	}
}

// treeParams derives the CF-tree shape from cfg; the checkpoint resume
// path (durable.go) must rebuild trees under exactly the parameters
// NewEngine would use.
func treeParams(cfg Config) cftree.Params {
	return cftree.Params{
		Dim:               cfg.Dim,
		Branching:         pager.BranchingFactor(cfg.PageSize, cfg.Dim),
		LeafCap:           pager.LeafCapacity(cfg.PageSize, cfg.Dim),
		Threshold:         cfg.InitialThreshold,
		ThresholdKind:     cfg.ThresholdKind,
		Metric:            cfg.Metric,
		MergingRefinement: cfg.MergingRefinement,
		Core:              cfg.Core,
	}
}

// NewEngine builds an Engine from cfg.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pgr, err := pager.New(pagerConfig(cfg))
	if err != nil {
		return nil, err
	}
	tree, err := cftree.New(treeParams(cfg), pgr)
	if err != nil {
		return nil, err
	}
	// The engine's lifetime covers exactly one pass over the input data.
	pgr.NoteScan()
	return &Engine{
		cfg:     cfg,
		pgr:     pgr,
		tree:    tree,
		est:     thresholdEstimator{dim: cfg.Dim},
		scratch: cf.NewCore(cfg.Dim, cfg.Core),
		started: time.Now(),
	}, nil
}

// SetExpectedN tells the threshold heuristic the total dataset size when
// it is known in advance (it caps the N(i+1) growth target at N, per
// Section 5.1.3).
func (e *Engine) SetExpectedN(n int64) { e.est.totalN = n }

// Pager exposes the resource model for statistics.
func (e *Engine) Pager() *pager.Pager { return e.pgr }

// Tree exposes the current CF tree (read-only use).
func (e *Engine) Tree() *cftree.Tree { return e.tree }

// Add streams one data point into Phase 1. The point is staged through
// the engine's scratch CF, so the absorb path — the steady state of a
// converged tree — performs zero heap allocations.
//
//birchlint:hotpath
func (e *Engine) Add(p vec.Vector) error {
	if len(p) != e.cfg.Dim {
		return fmt.Errorf("core: point dimension %d, config dimension %d", len(p), e.cfg.Dim)
	}
	e.scratch.SetPoint(p)
	return e.AddCF(e.scratch)
}

// AddSparse streams one sparse data point into Phase 1 — the CSR
// counterpart of Add, with identical resulting state: the tree after
// AddSparse(sp) is bit-identical to the tree after Add(densify(sp)).
// When the configured metric admits a gather descent (DCos, classic D2)
// and the point is below the measured density crossover, the closest-
// entry scans cost O(nnz) per candidate instead of O(d). sp must be
// structurally valid (vec.Sparse.Validate); the public API layer vets
// untrusted input before it reaches here. The engine does not retain
// sp's slices.
//
//birchlint:hotpath
func (e *Engine) AddSparse(sp vec.Sparse) error {
	if e.finished {
		return fmt.Errorf("core: AddSparse after FinishPhase1")
	}
	if sp.Dim() != e.cfg.Dim {
		return fmt.Errorf("core: point dimension %d, config dimension %d", sp.Dim(), e.cfg.Dim)
	}
	e.scanned.Add(1)

	if e.pgr.MemoryFull() {
		// The same delay-split ladder as AddCF, on the sparse paths.
		if e.cfg.DelaySplit && e.cfg.OutlierHandling {
			if err := e.tree.InsertSparseNoSplit(sp); err == nil {
				return nil
			}
			if err := e.pgr.WriteOutlier(e.cfg.Dim); err == nil {
				// Materialize an owned dense CF: the spill outlives this
				// call and the outlier buffer stores CFs, not points.
				e.outlierBuf = append(e.outlierBuf, cf.FromSparsePoint(sp, e.cfg.Core)) //birchlint:ignore hotpath spill path runs at most once per point and must own the vector
				e.spills.Add(1)
				return nil
			}
		}
		if err := e.rebuild(); err != nil {
			return err
		}
	}
	e.tree.InsertSparse(sp)
	return nil
}

// AddCF streams one pre-summarized subcluster into Phase 1. (Phase 1
// itself only ever feeds single points, but re-clustering an existing
// summary — e.g. merging two BIRCH runs — uses the same path.) The
// engine does not retain ent; paths that must keep it clone it first.
//
//birchlint:hotpath
func (e *Engine) AddCF(ent cf.CF) error {
	if e.finished {
		return fmt.Errorf("core: AddCF after FinishPhase1")
	}
	if ent.N == 0 {
		return nil
	}
	if ent.Dim() != e.cfg.Dim {
		return fmt.Errorf("core: point dimension %d, config dimension %d", ent.Dim(), e.cfg.Dim)
	}
	if ent.Kind() != e.cfg.Core {
		return fmt.Errorf("core: entry core %v, config core %v", ent.Kind(), e.cfg.Core)
	}
	e.scanned.Add(ent.N)

	if e.pgr.MemoryFull() {
		if e.cfg.DelaySplit && e.cfg.OutlierHandling {
			// Try to fit without growing the tree; spill to disk if not.
			if err := e.tree.InsertNoSplit(ent); err == nil {
				return nil
			}
			if err := e.pgr.WriteOutlier(e.cfg.Dim); err == nil {
				// Clone: ent may alias the Add scratch buffer, and the
				// spill outlives this call.
				e.outlierBuf = append(e.outlierBuf, ent.Clone()) //birchlint:ignore hotpath spill path runs at most once per point and must own the vector
				e.spills.Add(1)
				return nil
			}
			// Both memory and disk exhausted: rebuild, then retry the
			// insert into the roomier tree.
		}
		if err := e.rebuild(); err != nil {
			return err
		}
	}
	e.tree.Insert(ent)
	return nil
}

// rebuild escalates the threshold (Section 5.1.2–5.1.3), rebuilds the tree
// (Section 5.1.1), spills potential outliers to the outlier disk
// (Section 5.1.4), and re-absorbs previously spilled entries that now fit.
//
//birchlint:coldpath
func (e *Engine) rebuild() error {
	curT := e.tree.Threshold()
	newT := e.est.next(e.tree, curT, e.tree.Points())
	return e.rebuildAt(newT)
}

// rebuildAt rebuilds the tree at threshold newT, spilling potential
// outliers and re-absorbing previously spilled entries that now fit.
func (e *Engine) rebuildAt(newT float64) error {
	var isOutlier func(*cf.CF) bool
	if e.cfg.OutlierHandling {
		if st := e.tree.Stats(); st.Entries > 0 {
			cut := e.cfg.OutlierFraction * st.AvgN
			isOutlier = func(c *cf.CF) bool { return float64(c.N) < cut }
		}
	}

	nt, extracted, err := e.tree.Rebuild(newT, isOutlier)
	if err != nil {
		return err
	}
	e.tree = nt
	e.rebuilds.Add(1)

	for _, o := range extracted {
		if err := e.pgr.WriteOutlier(e.cfg.Dim); err != nil {
			// Disk full: free space by re-absorbing what now fits, then
			// retry; if the disk is still full the entry goes back into
			// the tree — data is never silently dropped mid-run.
			e.reabsorb()
			if err := e.pgr.WriteOutlier(e.cfg.Dim); err != nil {
				e.tree.Insert(o)
				continue
			}
		}
		e.outlierBuf = append(e.outlierBuf, o)
		e.spills.Add(1)
	}

	// Post-rebuild re-absorption pass (Figure 2: "Re-absorb potential
	// outliers into t1"): the larger threshold may accommodate entries
	// that previously required splits.
	e.reabsorb()
	return nil
}

// reabsorb tries to fold each spilled entry back into the tree without
// growing it; absorbed entries leave the disk buffer.
func (e *Engine) reabsorb() {
	if len(e.outlierBuf) == 0 {
		return
	}
	kept := e.outlierBuf[:0]
	absorbed := 0
	for _, o := range e.outlierBuf {
		if err := e.tree.InsertNoSplit(o); err == nil {
			absorbed++
		} else {
			kept = append(kept, o)
		}
	}
	e.outlierBuf = kept
	e.pgr.ReadOutliers(absorbed, e.cfg.Dim)
}

// FinishPhase1 performs the end-of-data outlier resolution: every spilled
// entry is re-absorbed if possible; entries that cannot be absorbed
// without growing the tree are discarded when they look like genuine
// outliers (below the outlier population cut), and force-inserted
// otherwise — a delay-split spill of a dense region is data, not noise.
// It returns the Phase 1 statistics.
func (e *Engine) FinishPhase1() Phase1Stats {
	start := e.started
	if !e.finished {
		e.reabsorb()
		if len(e.outlierBuf) > 0 {
			cut := 0.0
			if st := e.tree.Stats(); st.Entries > 0 {
				cut = e.cfg.OutlierFraction * st.AvgN
			}
			remaining := e.outlierBuf
			e.pgr.ReadOutliers(len(remaining), e.cfg.Dim)
			e.outlierBuf = nil
			for _, o := range remaining {
				if float64(o.N) < cut {
					e.discarded.Add(o.N)
					continue
				}
				e.tree.Insert(o)
			}
		}
		e.finished = true
	}
	return Phase1Stats{
		Duration:       time.Since(start),
		Points:         e.scanned.Load(),
		Rebuilds:       int(e.rebuilds.Load()),
		FinalThreshold: e.tree.Threshold(),
		LeafEntries:    e.tree.LeafEntries(),
		TreeNodes:      e.tree.Nodes(),
		TreeHeight:     e.tree.Height(),
		OutlierSpills:  e.spills.Load(),
		OutliersFinal:  e.discarded.Load(),
	}
}

// CounterStats returns the monotone Phase 1 counters — points scanned,
// rebuilds, outlier spills and final discards. Unlike FinishPhase1 it
// does not end the phase and, because the counters are atomics, it is
// safe to call from a goroutine other than the engine's owner while the
// owner streams points through Add. Tree-shape quantities (leaf entries,
// nodes, height, threshold) are deliberately absent: the tree is
// single-owner and may only be read from the owning goroutine.
func (e *Engine) CounterStats() Phase1Stats {
	return Phase1Stats{
		Points:        e.scanned.Load(),
		Rebuilds:      int(e.rebuilds.Load()),
		OutlierSpills: e.spills.Load(),
		OutliersFinal: e.discarded.Load(),
	}
}
