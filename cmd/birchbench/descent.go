package main

import (
	"fmt"

	"birch/internal/cf"
	"birch/internal/cftree"
	"birch/internal/pager"
)

// The scan suite (BENCH_scan.json) records the cost of the CF-tree's
// closest-entry scans with the fused block kernel (the default) against
// the per-entry kernel loop (the bit-identical reference), measured on an
// absorb-dominated steady state where descent is the whole hot path.

// scanRow is one descent workload. The Cost columns hold the fused
// block-scan numbers; EntryScanNsPerPoint is the per-entry kernel loop on
// the identical workload, and FusedVsEntryScan is fused/entries ns (< 1
// means the fused scan is faster). Both modes build bit-identical trees,
// so the ratio is pure scan cost.
type scanRow struct {
	Shape
	Metric string `json:"metric,omitempty"`
	Cost
	LeafEntries         int     `json:"leaf_entries,omitempty"`
	EntryScanNsPerPoint float64 `json:"entry_scan_ns_per_point,omitempty"`
	FusedVsEntryScan    float64 `json:"fused_vs_entry_scan,omitempty"`
}

// descentSpec is one descent workload: the distance metric,
// dimensionality, point count, and the tree shape. A 4 KB page gives
// wide nodes (large fan-out), so each closest-entry decision scans many
// candidates — exactly the loop the scan block exists to accelerate.
type descentSpec struct {
	Name      string
	Metric    cf.Metric
	Dim       int
	N         int
	PageSize  int
	Threshold float64
	Seed      int64
}

func descentSpecs(div int) []descentSpec {
	// Thresholds sit well below the blob diameter so each blob shatters
	// into many subclusters: the converged trees are several levels deep
	// with wide nodes, and every insert descends through full node scans
	// (the regime the fused kernel targets) instead of absorbing at a
	// one-leaf root.
	//
	// The suite spans both slab families: D0 and D4 stream the x0 slab
	// (per-component centroid divisions hoisted — the largest fused
	// wins), D2 streams the ls slab. D1 and D3 are covered by the
	// microbenchmarks in internal/cf instead: D1 descends identically to
	// D0, and D3's preference for merging with small clusters makes its
	// re-insert pass append rather than absorb, so it cannot satisfy
	// this workload's steady-state protocol. The absorb threshold is a
	// diameter bound in every spec, so tree shapes stay comparable and
	// only the descent scans change with the metric.
	return []descentSpec{
		{"descent_d2_dim2_n50k", cf.D2, 2, 50000 / div, 4 << 10, 0.25, 301},
		{"descent_d0_dim8_n20k", cf.D0, 8, 20000 / div, 4 << 10, 3, 302},
		{"descent_d4_dim32_n10k", cf.D4, 32, 10000 / div, 4 << 10, 8, 303},
	}
}

// runScan measures each spec under both scan modes. The protocol per
// mode: build the tree once from the point stream (warm-up; splits and
// structure happen here), then re-insert the same stream into the
// converged tree — at a threshold above the blob diameter every
// re-insertion absorbs, so the measured pass is pure descent + absorb,
// the steady state of Phase 1 on a converged tree. Both modes must agree
// on the resulting tree — the harness fatals on any divergence, so the
// speedup can never come from doing different work.
func runScan(o opts) map[string]scanRow {
	out := make(map[string]scanRow)
	for _, spec := range descentSpecs(o.div()) {
		pts := blobs(spec.Seed, spec.Dim, 16, spec.N)
		ents := make([]cf.CF, len(pts))
		for i, p := range pts {
			ents[i] = cf.FromPoint(p)
		}

		var leafEntries [2]int
		mode := func(slot int, m cftree.ScanMode) func() Cost {
			return func() Cost {
				tr := newDescentTree(spec, m)
				for i := range ents {
					tr.Insert(ents[i].Clone()) // warm-up: build the tree
				}
				c := measure(len(ents), func() {
					for i := range ents {
						tr.Insert(ents[i]) // measured: absorb steady state
					}
				})
				leafEntries[slot] = tr.LeafEntries()
				return c
			}
		}
		costs := bestOf(o.reps, mode(0, cftree.ScanFused), mode(1, cftree.ScanEntries))
		if leafEntries[0] != leafEntries[1] {
			fatal(fmt.Errorf("descent %s: scan modes diverged: %d vs %d leaf entries",
				spec.Name, leafEntries[0], leafEntries[1]))
		}
		out[spec.Name] = scanRow{
			Shape:               Shape{spec.Dim, len(pts), spec.Seed},
			Metric:              spec.Metric.String(),
			Cost:                costs[0],
			LeafEntries:         leafEntries[0],
			EntryScanNsPerPoint: costs[1].NsPerPoint,
			FusedVsEntryScan:    ratio(costs[0].NsPerPoint, costs[1].NsPerPoint),
		}
	}
	return out
}

func scanNames(o opts) []string {
	return specNames(descentSpecs(o.div()), func(s descentSpec) string { return s.Name })
}

func checkScan(_ opts, rows map[string]scanRow) error {
	return each(rows, func(_ string, w scanRow) bool {
		return positive(w.NsPerPoint, w.EntryScanNsPerPoint, w.FusedVsEntryScan)
	})
}

// newDescentTree builds an empty tree for the spec with page-derived
// fan-outs and an effectively unlimited memory budget (no rebuilds; the
// workload isolates descent, not threshold escalation).
func newDescentTree(spec descentSpec, mode cftree.ScanMode) *cftree.Tree {
	pgr := pager.MustNew(pager.Config{
		PageSize:     spec.PageSize,
		MemoryBudget: 1 << 30,
		DiskBudget:   1 << 20,
	})
	tr, err := cftree.New(cftree.Params{
		Dim:               spec.Dim,
		Branching:         pager.BranchingFactor(spec.PageSize, spec.Dim),
		LeafCap:           pager.LeafCapacity(spec.PageSize, spec.Dim),
		Threshold:         spec.Threshold,
		ThresholdKind:     cf.ThresholdDiameter,
		Metric:            spec.Metric,
		MergingRefinement: true,
		Scan:              mode,
	}, pgr)
	if err != nil {
		fatal(err)
	}
	return tr
}
