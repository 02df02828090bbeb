package stream

import (
	"context"
	"fmt"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/vec"
)

// runCompactor periodically merges the shard summaries and republishes
// the global snapshot, so readers see fresh clusters without any caller
// ever invoking Flush.
func (e *Engine) runCompactor() {
	defer e.compactWG.Done()
	t := time.NewTicker(e.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-t.C:
			e.ticks.Add(1)
			e.compact()
		}
	}
}

// compact is one background compaction round: snapshot the shards and
// publish the merged result.
func (e *Engine) compact() {
	ctx := context.Background()
	if e.acquireRound(ctx) != nil {
		return // engine closing; Close publishes the final snapshot
	}
	defer e.releaseRound()
	reports, err := e.syncShards(ctx)
	if err != nil {
		return
	}
	e.publish(reports)
}

// publish merges the shard reports into a fresh immutable Snapshot and
// stores it. The caller holds the round, which serializes publishers
// (Flush callers racing the compactor and Close) so generations stay
// strictly increasing and each publication is built from a later sync
// than the one before. When the merge fails the error is recorded and
// the previous snapshot stays current.
//
//birchlint:publishpath
func (e *Engine) publish(reports []shardReport) {
	snap := e.buildSnapshot(reports)
	if snap == nil {
		return
	}
	e.gen++
	snap.Gen = e.gen
	e.snap.Store(snap)
	e.compactions.Add(1)
	// Serving-health gauge: record the compactor tick this snapshot went
	// out on, so Stats can report how stale the published view is in
	// compaction periods (SnapshotAgeTicks).
	e.pubTick.Store(e.ticks.Load())
}

// buildSnapshot runs the serving merge pipeline over owner-built shard
// reports and attaches the per-shard gauges. The pipeline itself lives
// in MergeServingSnapshot so the network coordinator (internal/server)
// can run the identical code over summaries pulled off the wire.
func (e *Engine) buildSnapshot(reports []shardReport) *Snapshot {
	shardStats := make([]ShardStats, len(reports))
	sums := make([]core.Summary, len(reports))
	for i, r := range reports {
		shardStats[i] = r.stats
		sums[i] = r.sum
	}
	snap, err := MergeServingSnapshot(e.cfg, sums)
	if err != nil {
		e.setErr(err)
		return nil
	}
	snap.Shards = shardStats
	return snap
}

// MergeServingSnapshot merges leaf-CF summaries into a fresh serving
// Snapshot by the engine's compaction pipeline: pairwise CF-merge
// reduction (core.ReduceSummaries) to a handful of summaries, a final
// merge engine at cfg's initial threshold, Phase 2 condensation, and
// Phase 3 global clustering. Everything in the returned Snapshot is
// freshly built, so it is immutable like an engine publication (Gen and
// Shards are left for the caller).
//
// The function is the distribution seam of the CF Additivity Theorem:
// the streaming engine feeds it in-process shard reports, while the
// network coordinator feeds it per-shard summaries fetched from remote
// birchd daemons — for the same summaries in the same order the result
// is bit-identical, which is what makes scale-out exact rather than
// approximate.
func MergeServingSnapshot(cfg core.Config, sums []core.Summary) (*Snapshot, error) {
	nonEmpty := make([]core.Summary, 0, len(sums))
	for _, s := range sums {
		if len(s.CFs) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	sums = nonEmpty
	if len(sums) == 0 {
		return &Snapshot{}, nil
	}

	mcfg := cfg
	mcfg.Refine = false // no point access on the serving path
	mcfg.OutlierHandling = false
	mcfg.DelaySplit = false

	// Wide fan-outs go through the pairwise CF-merge reduction so the
	// final engine never absorbs more than a handful of summaries
	// sequentially. Narrow ones merge directly: each pairwise round
	// inherits the pair's max threshold and therefore coarsens, so we
	// only pay that cost when the fan-in is genuinely wide.
	const directMergeMax = 4
	if len(sums) > directMergeMax {
		var err error
		sums, _, err = core.ReduceSummaries(mcfg, sums, directMergeMax)
		if err != nil {
			return nil, fmt.Errorf("stream: compaction reduce: %w", err)
		}
	}
	// The final engine keeps the configured initial threshold instead of
	// inheriting the shards' raised ones: shard leaf CFs then insert as
	// entries of their own rather than chain-merging at threshold T, so a
	// W=1 snapshot reproduces the sequential tree exactly and quality
	// does not degrade through double condensation. If the union
	// overflows the memory budget, the engine's own rebuild-and-raise
	// reacts exactly as sequential Phase 1 would.
	eng, err := core.NewEngineFromSummaries(mcfg, sums...)
	if err != nil {
		return nil, fmt.Errorf("stream: compaction merge: %w", err)
	}
	eng.FinishPhase1()
	eng.Condense() // bounds Phase 3 input when cfg.Phase2 is on

	tree := eng.Tree()
	snap := &Snapshot{
		Points:      tree.Points(),
		Threshold:   tree.Threshold(),
		Subclusters: tree.LeafCFs(),
	}

	var p3 core.Phase3Stats
	clusters, err := eng.GlobalCluster(&p3)
	if err != nil {
		// Serve subcluster centroids rather than nothing: Phase 3 can fail
		// transiently (e.g. fewer leaf entries than K early in the stream).
		snap.Centroids = centroidsOf(snap.Subclusters)
		snap.buildFinder()
		return snap, nil
	}
	snap.Clusters = clusters
	snap.Centroids = centroidsOf(clusters)
	snap.buildFinder()
	return snap, nil
}

func centroidsOf(cfs []cf.CF) []vec.Vector {
	out := make([]vec.Vector, len(cfs))
	for i := range cfs {
		out[i] = cfs[i].Centroid()
	}
	return out
}
