package main

// Parallel-tail workloads (BENCH_tail.json): the Phase 4 refinement inner
// loop and the flat-scan serving path.
//
// Refine workloads time repeated nearest-centroid assignment passes over
// a fixed point set — exactly the shape of Phase 4 with RefinePasses > 1
// — three ways: the retained pre-parallel reference implementation
// (kmeans.AssignPointsReference: sequential, fresh buffers per pass,
// brute/k-d crossover at 24 centroids), the production Assigner at one
// worker, and the production Assigner at eight. All three produce the
// same labels; the deltas are pure implementation: fused flat scan,
// zero-alloc buffer reuse, and (on multi-core hosts) the chunked fan-out.
// Meta records GOMAXPROCS and NumCPU — on a single-CPU host the W8
// column measures scheduling overhead, not speedup, and the honest gain
// is the ref→par ratio.
//
// Classify workloads time one query stream against a fixed centroid set
// under each Finder mode — brute loop, fused flat scan, exact k-d tree —
// plus the batch path (index built once, fanned across workers). The
// fused-vs-kd columns across K are the measurement behind
// kmeans.FusedKDThreshold.

import (
	"strings"

	"birch/internal/kmeans"
)

// tailRow is one parallel-tail workload. Refine rows: RefNsPerPoint is
// the pre-parallel reference assignment, NsPerPoint the production
// Assigner at one worker, ParNsPerPoint the Assigner at -workers, and
// SpeedupVsRef = ref/par (> 1 means the production path is faster).
// Classify rows: per-query ns under each Finder mode plus the batch path,
// with NsPerPoint repeating the fused column; the fused-vs-kd columns
// across K locate the kmeans.FusedKDThreshold crossover.
type tailRow struct {
	Shape
	K       int `json:"k,omitempty"`
	Workers int `json:"workers,omitempty"`
	Cost
	RefNsPerPoint   float64 `json:"ref_ns_per_point,omitempty"`
	ParNsPerPoint   float64 `json:"par_ns_per_point,omitempty"`
	SpeedupVsRef    float64 `json:"speedup_vs_ref,omitempty"`
	BruteNsPerQuery float64 `json:"brute_ns_per_query,omitempty"`
	FusedNsPerQuery float64 `json:"fused_ns_per_query,omitempty"`
	KDNsPerQuery    float64 `json:"kd_ns_per_query,omitempty"`
	BatchNsPerQuery float64 `json:"batch_ns_per_query,omitempty"`
}

type tailSpec struct {
	Name string
	Dim  int
	N    int
	K    int
	Seed int64
}

func tailRefineSpecs(div int) []tailSpec {
	return []tailSpec{
		{"tail_refine_d2_k10", 2, 200000 / div, 10, 301},
		{"tail_refine_d2_k100", 2, 200000 / div, 100, 302},
		{"tail_refine_d8_k250", 8, 60000 / div, 250, 303},
	}
}

func tailClassifySpecs(div int) []tailSpec {
	return []tailSpec{
		{"tail_classify_d2_k8", 2, 200000 / div, 8, 311},
		{"tail_classify_d2_k32", 2, 200000 / div, 32, 312},
		{"tail_classify_d2_k64", 2, 100000 / div, 64, 313},
		{"tail_classify_d8_k128", 8, 50000 / div, 128, 314},
		{"tail_classify_d8_k250", 8, 50000 / div, 250, 315},
	}
}

// tailRefinePasses is how many assignment passes each refine measurement
// makes; > 1 so the Assigner's steady state (reused buffers) dominates,
// as it does in multi-pass Phase 4.
const tailRefinePasses = 4

func runTail(o opts) map[string]tailRow {
	out := make(map[string]tailRow)

	for _, spec := range tailRefineSpecs(o.div()) {
		pts := blobs(spec.Seed, spec.Dim, spec.K, spec.N)
		centroids := latticeCenters(spec.Dim, spec.K)
		passes := func(assign func()) func() Cost {
			return func() Cost {
				return measure(spec.N*tailRefinePasses, func() {
					for p := 0; p < tailRefinePasses; p++ {
						assign()
					}
				})
			}
		}
		var one, par kmeans.Assigner
		c := bestOf(o.reps,
			passes(func() { kmeans.AssignPointsReference(pts, centroids, 0) }),
			passes(func() { one.Assign(pts, centroids, 0, 1) }),
			passes(func() { par.Assign(pts, centroids, 0, o.workers) }))
		out[spec.Name] = tailRow{
			Shape: Shape{spec.Dim, spec.N, spec.Seed}, K: spec.K, Workers: o.workers,
			RefNsPerPoint: c[0].NsPerPoint,
			Cost:          Cost{NsPerPoint: c[1].NsPerPoint},
			ParNsPerPoint: c[2].NsPerPoint,
			SpeedupVsRef:  ratio(c[0].NsPerPoint, c[2].NsPerPoint),
		}
	}

	for _, spec := range tailClassifySpecs(o.div()) {
		queries := blobs(spec.Seed, spec.Dim, spec.K, spec.N)
		centroids := latticeCenters(spec.Dim, spec.K)
		nearest := func(f *kmeans.Finder) func() Cost {
			return func() Cost {
				return measure(spec.N, func() {
					for _, q := range queries {
						f.Nearest(q)
					}
				})
			}
		}
		auto := kmeans.NewFinder(centroids)
		idx := make([]int, spec.N)
		d2 := make([]float64, spec.N)
		c := bestOf(o.reps,
			nearest(kmeans.NewFinderMode(centroids, kmeans.FinderBrute)),
			nearest(kmeans.NewFinderMode(centroids, kmeans.FinderFused)),
			nearest(kmeans.NewFinderMode(centroids, kmeans.FinderKD)),
			func() Cost { return measure(spec.N, func() { auto.NearestBatch(queries, idx, d2, o.workers) }) })
		out[spec.Name] = tailRow{
			Shape: Shape{spec.Dim, spec.N, spec.Seed}, K: spec.K, Workers: o.workers,
			Cost:            Cost{NsPerPoint: c[1].NsPerPoint},
			BruteNsPerQuery: c[0].NsPerPoint,
			FusedNsPerQuery: c[1].NsPerPoint,
			KDNsPerQuery:    c[2].NsPerPoint,
			BatchNsPerQuery: c[3].NsPerPoint,
		}
	}
	return out
}

func tailNames(o opts) []string {
	name := func(s tailSpec) string { return s.Name }
	return append(specNames(tailRefineSpecs(o.div()), name), specNames(tailClassifySpecs(o.div()), name)...)
}

// checkTail requires the refine columns on refine rows and the classify
// columns on classify rows.
func checkTail(_ opts, rows map[string]tailRow) error {
	return each(rows, func(name string, w tailRow) bool {
		if strings.HasPrefix(name, "tail_refine_") {
			return positive(w.RefNsPerPoint, w.NsPerPoint, w.ParNsPerPoint, w.SpeedupVsRef)
		}
		return positive(w.BruteNsPerQuery, w.FusedNsPerQuery, w.KDNsPerQuery, w.BatchNsPerQuery)
	})
}
