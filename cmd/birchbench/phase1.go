package main

import (
	"fmt"
	"math"

	"birch/internal/core"
	"birch/internal/dataset"
)

// phase1Row is one BENCH_phase1.json workload.
type phase1Row struct {
	Shape
	Cost
	// LeafEntries is the subcluster count Phase 1 handed onward; Rebuilds
	// counts threshold escalations. Both double as determinism probes: they
	// must not drift between runs of the same seed.
	LeafEntries int `json:"leaf_entries,omitempty"`
	Rebuilds    int `json:"rebuilds,omitempty"`
}

// pipelineRow is one BENCH_pipeline.json workload; Workers and
// SpeedupVsSeq are set only on the parallel row.
type pipelineRow struct {
	phase1Row
	Workers      int     `json:"workers,omitempty"`
	SpeedupVsSeq float64 `json:"speedup_vs_seq,omitempty"`
	Clusters     int     `json:"clusters,omitempty"`
}

// phase1Spec is one insert workload: varying dimensionality under a roomy
// budget (absorb-dominated steady state) plus the paper's default 80 KB
// budget (rebuild pressure).
type phase1Spec struct {
	Name   string
	Dim    int
	N      int
	Memory int
	// Threshold is T0. The roomy workloads set it above the expected
	// within-cluster diameter so the absorb path (the steady state of a
	// converged tree) dominates; the 80 KB workload keeps the paper's
	// T0 = 0 and measures the rebuild-escalation regime instead.
	Threshold float64
	Seed      int64
}

func phase1Specs(div int) []phase1Spec {
	return []phase1Spec{
		{"insert_d2_n50k", 2, 50000 / div, 4 << 20, 4, 101},
		{"insert_d8_n20k", 8, 20000 / div, 4 << 20, 8, 102},
		{"insert_d32_n10k", 32, 10000 / div, 8 << 20, 16, 103},
		{"insert_d2_n50k_mem80k", 2, 50000 / div, 80 << 10, 0, 104},
	}
}

// runPhase1 streams deterministic Gaussian-blob points through
// Engine.Add and finishes Phase 1.
func runPhase1(o opts) map[string]phase1Row {
	out := make(map[string]phase1Row)
	for _, spec := range phase1Specs(o.div()) {
		pts := blobs(spec.Seed, spec.Dim, 16, spec.N)
		cfg := core.DefaultConfig(spec.Dim, 16)
		cfg.Memory = spec.Memory
		cfg.InitialThreshold = spec.Threshold
		cfg.Refine = false
		cfg.Phase2 = false

		w := phase1Row{Shape: Shape{spec.Dim, len(pts), spec.Seed}}
		w.Cost = bestOf(o.reps, func() Cost {
			return measure(len(pts), func() {
				eng, err := core.NewEngine(cfg)
				if err != nil {
					fatal(err)
				}
				eng.SetExpectedN(int64(len(pts)))
				for _, p := range pts {
					if err := eng.Add(p); err != nil {
						fatal(err)
					}
				}
				stats := eng.FinishPhase1()
				w.LeafEntries, w.Rebuilds = stats.LeafEntries, stats.Rebuilds
			})
		})[0]
		out[spec.Name] = w
	}
	return out
}

func phase1Names(o opts) []string {
	return specNames(phase1Specs(o.div()), func(s phase1Spec) string { return s.Name })
}

func checkPhase1(_ opts, rows map[string]phase1Row) error {
	return each(rows, func(_ string, w phase1Row) bool { return positive(w.NsPerPoint, float64(w.Points)) })
}

// runPipeline times sequential Run against RunParallel at -workers on
// the DS1 grid pattern in random order.
func runPipeline(o opts) map[string]pipelineRow {
	k, perCluster := 100, 1000
	if o.quick {
		k, perCluster = 25, 200
	}
	const seed = 201
	ds, err := dataset.Generate(dataset.Params{
		Pattern: dataset.Grid,
		K:       k,
		NLow:    perCluster, NHigh: perCluster,
		RLow: math.Sqrt2, RHigh: math.Sqrt2,
		KG:    4,
		Order: dataset.Randomized,
		Seed:  seed,
	})
	if err != nil {
		fatal(err)
	}
	cfg := core.DefaultConfig(2, k)

	// timed measures one pipeline run and records its clustering into row.
	timed := func(row *pipelineRow, run func() (*core.Result, error)) func() Cost {
		return func() Cost {
			var res *core.Result
			c := measure(ds.N(), func() {
				var err error
				if res, err = run(); err != nil {
					fatal(err)
				}
			})
			row.LeafEntries = res.Stats.Phase1.LeafEntries
			row.Rebuilds = res.Stats.Phase1.Rebuilds
			row.Clusters = len(res.Clusters)
			return c
		}
	}
	shape := Shape{2, ds.N(), seed}
	seq := pipelineRow{phase1Row: phase1Row{Shape: shape}}
	par := pipelineRow{phase1Row: phase1Row{Shape: shape}, Workers: o.workers}
	costs := bestOf(o.reps,
		timed(&seq, func() (*core.Result, error) { return core.Run(ds.Points, cfg) }),
		timed(&par, func() (*core.Result, error) { return core.RunParallel(ds.Points, cfg, o.workers) }))
	seq.Cost, par.Cost = costs[0], costs[1]
	par.SpeedupVsSeq = ratio(seq.NsPerPoint, par.NsPerPoint)
	names := pipelineNames(o)
	return map[string]pipelineRow{names[0]: seq, names[1]: par}
}

// pipelineNames is the sequential row and the parallel row, whose key
// embeds the -workers count.
func pipelineNames(o opts) []string {
	return []string{"pipeline_seq_ds1", fmt.Sprintf("pipeline_par%d_ds1", o.workers)}
}

func checkPipeline(_ opts, rows map[string]pipelineRow) error {
	return each(rows, func(_ string, w pipelineRow) bool { return positive(w.NsPerPoint, float64(w.Points)) })
}
