package main

import (
	"fmt"
	"math"
	"os"
	"strings"

	"birch/internal/cf"
	"birch/internal/cftree"
	"birch/internal/dataset"
	"birch/internal/pager"
	"birch/internal/vec"
)

// The sparse suite (BENCH_sparse.json) records the sparse fast-path
// workloads: Zipfian document vectors (dataset.SparseDocs) scanned
// against a CF block under the dense fused kernel and the sparse gather
// kernel, across the dimensionality × density grid, plus the density
// sweeps that pin the cf.SparseGatherMaxDensity crossover and two
// end-to-end tree-insert pairs. Every dense/sparse pair must agree
// bit-for-bit on every scan — the harness fatals on the first
// divergence, so a speedup can never come from doing different work.

// sparseRow is one sparse workload. NNZ is the nonzeros per document; the
// NsPerPoint column holds the sparse path (gather scan, or InsertSparse
// for the tree pairs), DenseNsPerPoint the dense fused path on the
// identical workload, and SparseVsDense their ratio (< 1 means the sparse
// path is faster). CrossoverDensity is set only on the density-sweep
// rows: the measured nnz/d where the gather scan stops beating the fused
// dense scan, the constant behind cf.SparseGatherMaxDensity.
type sparseRow struct {
	Shape
	NNZ         int    `json:"nnz,omitempty"`
	Metric      string `json:"metric,omitempty"`
	LeafEntries int    `json:"leaf_entries,omitempty"`
	Cost
	DenseNsPerPoint  float64 `json:"dense_ns_per_point,omitempty"`
	SparseVsDense    float64 `json:"sparse_vs_dense,omitempty"`
	CrossoverDensity float64 `json:"crossover_density,omitempty"`
}

// sparseSpec is one scan workload: dimensionality (vocabulary size),
// nonzeros per document, document count, and the number of block
// entries each scan streams past.
type sparseSpec struct {
	Name    string
	Metric  cf.Metric
	Dim     int
	NNZ     int
	N       int
	Entries int
	Seed    int64
}

// sparseSpecs is the d ∈ {64, 256, 1024} × nnz/d ∈ {1%, 5%, 20%} grid
// under cosine, plus one D2 pair (the other metric with a gather form)
// at the center of the grid.
func sparseSpecs(div int) []sparseSpec {
	return []sparseSpec{
		{"sparse_scan_d64_nnz1", cf.DCos, 64, 1, 20000 / div, 128, 401},
		{"sparse_scan_d64_nnz3", cf.DCos, 64, 3, 20000 / div, 128, 402},
		{"sparse_scan_d64_nnz13", cf.DCos, 64, 13, 20000 / div, 128, 403},
		{"sparse_scan_d256_nnz3", cf.DCos, 256, 3, 8000 / div, 160, 404},
		{"sparse_scan_d256_nnz13", cf.DCos, 256, 13, 8000 / div, 160, 405},
		{"sparse_scan_d256_nnz51", cf.DCos, 256, 51, 8000 / div, 160, 406},
		{"sparse_scan_d1024_nnz10", cf.DCos, 1024, 10, 3000 / div, 192, 407},
		{"sparse_scan_d1024_nnz51", cf.DCos, 1024, 51, 3000 / div, 192, 408},
		{"sparse_scan_d1024_nnz205", cf.DCos, 1024, 205, 3000 / div, 192, 409},
		{"sparse_scan_d256_nnz13_d2", cf.D2, 256, 13, 8000 / div, 160, 410},
	}
}

// sparseTreeSpec is one end-to-end pair: the full Phase 1 descent
// (cftree.Tree) fed the identical document stream through the dense
// insert path and through InsertSparse.
type sparseTreeSpec struct {
	Name      string
	Dim       int
	NNZ       int
	N         int
	PageSize  int
	Threshold float64
	Seed      int64
}

// Page sizes scale with the dimension so the fan-out stays ~15 — a
// 4 KB page holds fewer than two dim-1024 CF entries, and the min-2
// fan-out clamp degenerates the tree into one root split per insert.
// Thresholds are Euclidean-diameter bounds (the absorb test is metric-
// independent) sized so the measured re-insert pass absorbs ~90% of the
// stream into a converged multi-level tree rather than appending.
func sparseTreeSpecs(div int) []sparseTreeSpec {
	return []sparseTreeSpec{
		{"sparse_tree_d256_nnz13", 256, 13, 8000 / div, 32 << 10, 4.5, 421},
		{"sparse_tree_d1024_nnz51", 1024, 51, 3000 / div, 128 << 10, 10, 422},
	}
}

// sparseDocsFor generates the spec's document set: 64 Zipfian topics,
// fixed seed, exactly nnz nonzeros per document.
func sparseDocsFor(dim, nnz, n int, seed int64) []vec.Sparse {
	const topics = 64
	nPer := (n + topics - 1) / topics
	docs, _ := dataset.SparseDocs(dim, topics, nPer, nnz, 1.1, seed)
	return docs[:n]
}

// buildSparseBlock folds the documents round-robin into `entries`
// merged CFs — centroids dense enough to stand in for converged leaf
// entries — and packs them into a scan block.
func buildSparseBlock(docs []vec.Sparse, entries int, kind cf.CoreKind) *cf.Block {
	dim := docs[0].Dim()
	if entries > len(docs) {
		entries = len(docs) // quick mode: never leave an entry empty
	}
	cfs := make([]cf.CF, entries)
	for i := range cfs {
		cfs[i] = cf.NewCore(dim, kind)
	}
	for i := range docs {
		c := cf.FromSparsePoint(docs[i], kind)
		cfs[i%entries].Merge(&c)
	}
	b := cf.NewBlockOpts(dim, entries, kind)
	for i := range cfs {
		b.Append(&cfs[i])
	}
	return b
}

// runSparse measures the scan grid, the crossover sweeps, and the
// end-to-end tree pairs.
func runSparse(o opts) map[string]sparseRow {
	out := make(map[string]sparseRow)
	for _, spec := range sparseSpecs(o.div()) {
		fmt.Fprintf(os.Stderr, "sparse: %s...\n", spec.Name)
		out[spec.Name] = runSparseScan(spec, o.reps)
	}
	for _, dim := range sparseCrossoverDims {
		name := sparseCrossoverName(dim)
		fmt.Fprintf(os.Stderr, "sparse: %s...\n", name)
		out[name] = runSparseCrossover(dim, o.quick, o.reps)
	}
	for _, spec := range sparseTreeSpecs(o.div()) {
		fmt.Fprintf(os.Stderr, "sparse: %s...\n", spec.Name)
		out[spec.Name] = runSparseTree(spec, o.reps)
	}
	return out
}

// sparseCrossoverDims are the dimensionalities swept for the gather/dense
// crossover density.
var sparseCrossoverDims = []int{64, 256, 1024}

func sparseCrossoverName(dim int) string { return fmt.Sprintf("sparse_crossover_d%d", dim) }

func sparseNames(o opts) []string {
	names := specNames(sparseSpecs(o.div()), func(s sparseSpec) string { return s.Name })
	for _, dim := range sparseCrossoverDims {
		names = append(names, sparseCrossoverName(dim))
	}
	return append(names, specNames(sparseTreeSpecs(o.div()), func(s sparseTreeSpec) string { return s.Name })...)
}

// checkSparse requires a crossover density in (0, 1] on the sweep rows
// and measured sparse and dense columns on every other row.
func checkSparse(_ opts, rows map[string]sparseRow) error {
	return each(rows, func(name string, w sparseRow) bool {
		if strings.HasPrefix(name, "sparse_crossover_") {
			return w.CrossoverDensity > 0 && w.CrossoverDensity <= 1
		}
		return positive(w.NsPerPoint, w.DenseNsPerPoint, w.SparseVsDense)
	})
}

// runSparseScan times one dense-vs-gather scan pair. Protocol: pack the
// merged-centroid block once, then for each document bind the query and
// run the whole-block argmin scan — the exact inner loop of a Phase 1
// descent step. The dense pass densifies the document into the query
// scratch (SetPointSparse + Bind, identical to what the tree's dense
// path does); the gather pass adds BindSparse aliasing. Before any
// timing, every document is scanned under both kernels and the results
// compared bit-for-bit.
func runSparseScan(spec sparseSpec, reps int) sparseRow {
	const kind = cf.CoreClassic
	docs := sparseDocsFor(spec.Dim, spec.NNZ, spec.N, spec.Seed)
	blk := buildSparseBlock(docs, spec.Entries, kind)
	dense := cf.ScanKernelForCore(spec.Metric, kind)
	gather, ok := cf.SparseScanKernelForCore(spec.Metric, kind)
	if !ok {
		fatal(fmt.Errorf("sparse %s: no gather kernel for metric %v", spec.Name, spec.Metric))
	}

	q := cf.NewQuery(spec.Dim)
	spCF := cf.NewCore(spec.Dim, kind)

	// Parity self-check: the gather kernel must be bit-identical to the
	// fused dense scan on every document before its speed means anything.
	for i, sp := range docs {
		spCF.SetPointSparse(sp)
		q.Bind(&spCF)
		di, dd := dense(q, blk)
		q.BindSparse(&spCF, sp)
		gi, gd := gather(q, blk)
		if di != gi || math.Float64bits(dd) != math.Float64bits(gd) {
			fatal(fmt.Errorf("sparse %s: doc %d diverged: dense (%d, %x) vs gather (%d, %x)",
				spec.Name, i, di, math.Float64bits(dd), gi, math.Float64bits(gd)))
		}
	}

	c := bestOf(reps,
		func() Cost {
			return measure(len(docs), func() {
				for _, sp := range docs {
					spCF.SetPointSparse(sp)
					q.Bind(&spCF)
					dense(q, blk)
				}
			})
		},
		func() Cost {
			return measure(len(docs), func() {
				for _, sp := range docs {
					spCF.SetPointSparse(sp)
					q.BindSparse(&spCF, sp)
					gather(q, blk)
				}
			})
		})
	return sparseRow{
		Shape: Shape{spec.Dim, len(docs), spec.Seed}, NNZ: spec.NNZ,
		Metric: spec.Metric.String(), LeafEntries: blk.Len(),
		Cost:            Cost{NsPerPoint: c[1].NsPerPoint},
		DenseNsPerPoint: c[0].NsPerPoint,
		SparseVsDense:   ratio(c[1].NsPerPoint, c[0].NsPerPoint),
	}
}

// runSparseCrossover sweeps density at fixed dimensionality and locates
// where the gather kernel stops beating the fused dense scan: the
// measured cf.SparseGatherMaxDensity. The crossover is the linear
// interpolation of the first sweep interval whose gather/dense ratio
// crosses 1 (clamped to the last density when the gather wins the whole
// sweep).
func runSparseCrossover(dim int, quick bool, reps int) sparseRow {
	const kind = cf.CoreClassic
	n, entries := 1500, 192
	if quick {
		n = 150
	}
	densities := []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.65, 0.80, 0.90, 1.0}
	ratios := make([]float64, len(densities))
	for di, density := range densities {
		nnz := int(density * float64(dim))
		if nnz < 1 {
			nnz = 1
		}
		spec := sparseSpec{
			Name: fmt.Sprintf("crossover_d%d_p%g", dim, density), Metric: cf.DCos,
			Dim: dim, NNZ: nnz, N: n, Entries: entries, Seed: 430 + int64(di),
		}
		ratios[di] = runSparseScan(spec, reps).SparseVsDense
		fmt.Fprintf(os.Stderr, "sparse:   d=%d density=%.2f gather/dense=%.3f\n", dim, density, ratios[di])
	}
	cross := densities[len(densities)-1]
	for i := 1; i < len(ratios); i++ {
		if ratios[i] >= 1 && ratios[i-1] < 1 {
			// Interpolate the density where the ratio hits 1.
			t := (1 - ratios[i-1]) / (ratios[i] - ratios[i-1])
			cross = densities[i-1] + t*(densities[i]-densities[i-1])
			break
		}
	}
	return sparseRow{Shape: Shape{dim, n, 430}, Metric: cf.DCos.String(), CrossoverDensity: cross}
}

// runSparseTree measures the end-to-end pair: the same document stream
// through the dense insert path and through Tree.InsertSparse on
// separate but bit-identical trees. Protocol follows the descent suite:
// build the tree from the stream (warm-up), then re-insert the stream
// as the measured pass; both modes must agree on the final leaf count.
func runSparseTree(spec sparseTreeSpec, reps int) sparseRow {
	docs := sparseDocsFor(spec.Dim, spec.NNZ, spec.N, spec.Seed)
	dense := make([]vec.Vector, len(docs))
	for i, sp := range docs {
		dense[i] = sp.Dense()
	}

	var leaves [2]int
	c := bestOf(reps,
		func() Cost {
			tr := newSparseTree(spec)
			scratch := cf.New(spec.Dim)
			insert := func() {
				for _, p := range dense {
					scratch.SetPoint(p)
					tr.Insert(scratch)
				}
			}
			insert() // warm-up: build the tree
			c := measure(len(dense), insert)
			leaves[0] = tr.LeafEntries()
			return c
		},
		func() Cost {
			tr := newSparseTree(spec)
			insert := func() {
				for _, sp := range docs {
					tr.InsertSparse(sp)
				}
			}
			insert() // warm-up: build the tree
			c := measure(len(docs), insert)
			leaves[1] = tr.LeafEntries()
			return c
		})
	if leaves[0] != leaves[1] {
		fatal(fmt.Errorf("sparse %s: insert paths diverged: %d vs %d leaf entries",
			spec.Name, leaves[0], leaves[1]))
	}
	return sparseRow{
		Shape: Shape{spec.Dim, len(docs), spec.Seed}, NNZ: spec.NNZ,
		Metric: cf.DCos.String(), LeafEntries: leaves[0],
		Cost:            Cost{NsPerPoint: c[1].NsPerPoint},
		DenseNsPerPoint: c[0].NsPerPoint,
		SparseVsDense:   ratio(c[1].NsPerPoint, c[0].NsPerPoint),
	}
}

func newSparseTree(spec sparseTreeSpec) *cftree.Tree {
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
		Metric:            cf.DCos,
		MergingRefinement: true,
		Scan:              cftree.ScanFused,
	}, pgr)
	if err != nil {
		fatal(err)
	}
	return tr
}
