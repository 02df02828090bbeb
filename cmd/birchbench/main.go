// Command birchbench is the repo's performance-trajectory harness. It runs
// eight fixed-seed suites and writes one BENCH_<suite>.json per suite, so
// every change leaves behind a comparable record of where each layer
// stands:
//
//   - scan: the fused block scan against the per-entry kernel loop on
//     converged CF trees (descent.go).
//   - phase1: Phase 1 inserts, the paper's single-scan tree build
//     (Section 4.2), in ns, allocs and bytes per point (phase1.go).
//   - pipeline: sequential Run against RunParallel on a DS1-style base
//     workload (Section 6.2) (phase1.go).
//   - stream: concurrent ingest beside live classify readers, the stream
//     engine against a mutex-wrapped engine (stream.go).
//   - tail: Phase 4 refinement passes and the classify serving path
//     (tail.go).
//   - wal: write-ahead-log ingest overhead and warm-restart replay
//     (wal.go).
//   - serve: an in-process birchd ramped to its saturation knee, then
//     overloaded and drained (serve.go).
//   - sparse: the sparse gather kernel against the dense fused scan
//     (sparse.go).
//
// Each suite is one entry of the suites table: its file, the workload
// names it must produce, its run function and a check over its own row
// type. The runner does everything else once for all of them: -only
// dispatch, the meta stamp (Go version, GOMAXPROCS, CPU count, commit),
// best-of-reps, writing, -baseline ratios, and reading each file back to
// check the meta stamp and require every named workload before the
// suite's own gates run. Any failure exits non-zero; CI's bench-smoke job
// relies on that (-quick shrinks every workload but keeps the same keys).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"birch/internal/vec"
)

// suites is the harness: every BENCH file, in the order -only all runs
// them.
var suites = []suite{
	newSuite("BENCH_scan.json", scanNames, runScan, checkScan),
	newSuite("BENCH_phase1.json", phase1Names, runPhase1, checkPhase1),
	newSuite("BENCH_pipeline.json", pipelineNames, runPipeline, checkPipeline),
	newSuite("BENCH_stream.json", streamNames, runStream, checkStream),
	newSuite("BENCH_tail.json", tailNames, runTail, checkTail),
	newSuite("BENCH_wal.json", walNames, runWAL, checkWAL),
	newSuite("BENCH_serve.json", serveNames, runServe, checkServe),
	newSuite("BENCH_sparse.json", sparseNames, runSparse, checkSparse),
}

// opts carries the harness flags a suite may read.
type opts struct {
	quick   bool
	reps    int // best-of repetitions per timed workload
	workers int // worker count for the parallel workloads
}

// div is the workload-size divisor: -quick shrinks point counts 10x.
func (o opts) div() int {
	if o.quick {
		return 10
	}
	return 1
}

// Meta pins the execution environment so numbers from different PRs can be
// compared honestly.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
	Quick      bool   `json:"quick"`
	Generated  string `json:"generated_by"`
}

// Report is the schema of every BENCH_*.json file; R is the suite's row
// type.
type Report[R any] struct {
	Meta       Meta                  `json:"meta"`
	Workloads  map[string]R          `json:"workloads"`
	Baseline   map[string]R          `json:"baseline,omitempty"`
	Comparison map[string]Comparison `json:"comparison,omitempty"`
}

// Comparison is the per-workload baseline-vs-current delta, written for
// rows that carry a per-point Cost. A column either side left unmeasured
// (zero) is omitted, and a row with no column measured on both sides gets
// no entry.
type Comparison struct {
	NsRatio     float64 `json:"ns_ratio,omitempty"`     // current / baseline, < 1 is faster
	AllocsRatio float64 `json:"allocs_ratio,omitempty"` // current / baseline, < 1 is leaner
	BytesRatio  float64 `json:"bytes_ratio,omitempty"`
}

// Shape identifies a workload's input.
type Shape struct {
	Dim    int   `json:"dim"`
	Points int   `json:"points"`
	Seed   int64 `json:"seed"`
}

// Cost is one timed run normalised per point: wall time, heap allocations
// and bytes allocated. Rows that embed it get -baseline comparisons.
type Cost struct {
	NsPerPoint     float64 `json:"ns_per_point,omitempty"`
	AllocsPerPoint float64 `json:"allocs_per_point,omitempty"`
	BytesPerPoint  float64 `json:"bytes_per_point,omitempty"`
}

func (c Cost) cost() Cost { return c }

// best keeps the lowest value of each column across runs.
func (c Cost) best(o Cost) Cost {
	return Cost{
		NsPerPoint:     min(c.NsPerPoint, o.NsPerPoint),
		AllocsPerPoint: min(c.AllocsPerPoint, o.AllocsPerPoint),
		BytesPerPoint:  min(c.BytesPerPoint, o.BytesPerPoint),
	}
}

// rate is one timed throughput run: wall-clock points/sec plus the
// sampled per-insert latency percentiles (ns) of that run.
type rate struct{ pps, p50, p99 float64 }

// best keeps the faster run whole, so its percentiles stay its own.
func (r rate) best(o rate) rate {
	if o.pps > r.pps {
		return o
	}
	return r
}

// suite is one table entry bound to the shared report pipeline; exec
// runs, writes and checks it and returns its workload count.
type suite struct {
	file string
	exec func(o opts, meta Meta, outDir, baseDir string) (int, error)
}

// name is the suite's -only value: BENCH_<name>.json.
func (s suite) name() string {
	return strings.TrimSuffix(strings.TrimPrefix(s.file, "BENCH_"), ".json")
}

// newSuite binds a suite's parts: names lists every workload its run must
// produce, independently of the rows it did produce, so a workload that
// silently stops being written fails the read-back.
func newSuite[R any](file string, names func(opts) []string, run func(opts) map[string]R, check func(opts, map[string]R) error) suite {
	exec := func(o opts, meta Meta, outDir, baseDir string) (int, error) {
		rows := run(o)
		path := filepath.Join(outDir, file)
		if err := writeReport(path, meta, rows, baseDir); err != nil {
			return 0, err
		}
		back, err := readReport[R](path)
		if err != nil {
			return 0, err
		}
		if back.Meta.GoVersion == "" {
			return 0, fmt.Errorf("%s: missing meta.go_version", file)
		}
		for _, name := range names(o) {
			if _, ok := back.Workloads[name]; !ok {
				return 0, fmt.Errorf("%s: missing workload %q", file, name)
			}
		}
		if err := check(o, back.Workloads); err != nil {
			return 0, fmt.Errorf("%s: %w", file, err)
		}
		return len(rows), nil
	}
	return suite{file: file, exec: exec}
}

func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name()
	}
	return strings.Join(names, ", ")
}

func main() {
	var o opts
	flag.BoolVar(&o.quick, "quick", false, "shrink workloads ~10x (CI smoke)")
	outDir := flag.String("out", ".", "directory for BENCH_*.json")
	baseDir := flag.String("baseline", "", "directory holding a previous run's BENCH_*.json to compare against")
	flag.IntVar(&o.reps, "reps", 3, "repetitions per workload (best-of)")
	flag.IntVar(&o.workers, "workers", 8, "worker count for the parallel pipeline and tail workloads")
	only := flag.String("only", "all", `run one suite: "all" or one of `+suiteNames())
	flag.Parse()
	if err := runSuites(o, *only, *outDir, *baseDir); err != nil {
		fatal(err)
	}
}

// runSuites runs the suite named only (or every suite for "all") and
// writes its reports into outDir.
func runSuites(o opts, only, outDir, baseDir string) error {
	if o.reps < 1 {
		return errors.New("-reps must be at least 1")
	}
	run := suites
	if only != "all" {
		run = nil
		for _, s := range suites {
			if s.name() == only {
				run = []suite{s}
			}
		}
		if run == nil {
			return fmt.Errorf("unknown -only value %q (want all, %s)", only, suiteNames())
		}
	}
	meta := Meta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     gitCommit(),
		Quick:      o.quick,
		Generated:  "cmd/birchbench",
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, s := range run {
		n, err := s.exec(o, meta, outDir, baseDir)
		if err != nil {
			return err
		}
		fmt.Printf("birchbench OK: %d %s workloads -> %s\n", n, s.name(), outDir)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "birchbench:", err)
	os.Exit(1)
}

// bestOf runs each of fns once per rep and keeps each one's best run.
// The fns are interleaved within a rep rather than run back to back, so
// slow drift in the host's speed hits every side of a ratio alike.
func bestOf[T interface{ best(T) T }](reps int, fns ...func() T) []T {
	out := make([]T, len(fns))
	for r := 0; r < reps; r++ {
		for i, f := range fns {
			if s := f(); r == 0 {
				out[i] = s
			} else {
				out[i] = out[i].best(s)
			}
		}
	}
	return out
}

// measure times f and attributes its heap traffic per point. A GC fence
// before the run keeps leftover garbage from a previous workload out of
// the deltas.
func measure(points int, f func()) Cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(points)
	return Cost{
		NsPerPoint:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerPoint: float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerPoint:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
}

// pooled concatenates per-goroutine latency samples and sorts them for
// percentile.
func pooled(parts [][]float64) []float64 {
	var all []float64
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Float64s(all)
	return all
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// ratio is cur/base, or 0 when there is no base to divide by.
func ratio(cur, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return cur / base
}

// positive reports whether every measured column is > 0: the shared
// degenerate-measurement test.
func positive(vs ...float64) bool {
	for _, v := range vs {
		if !(v > 0) {
			return false
		}
	}
	return true
}

// each applies ok to every row in name order and reports the first row
// whose measurements it rejects.
func each[R any](rows map[string]R, ok func(name string, w R) bool) error {
	for _, name := range sortedKeys(rows) {
		if !ok(name, rows[name]) {
			return fmt.Errorf("workload %q has degenerate measurements", name)
		}
	}
	return nil
}

// specNames lists the name of each spec, in spec order.
func specNames[S any](specs []S, name func(S) string) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = name(s)
	}
	return out
}

func sortedKeys[R any](m map[string]R) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// blobs generates n points from k well-separated d-dimensional Gaussian
// clusters, deterministically from seed. Centers sit on a scaled integer
// lattice so separation holds in any dimension.
func blobs(seed int64, dim, k, n int) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	centers := latticeCenters(dim, k)
	pts := make([]vec.Vector, n)
	for i := range pts {
		c := centers[i%k]
		p := vec.New(dim)
		for d := 0; d < dim; d++ {
			p[d] = c[d] + r.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// latticeCenters returns the k deterministic cluster centers blobs
// samples around.
func latticeCenters(dim, k int) []vec.Vector {
	centers := make([]vec.Vector, k)
	for i := range centers {
		c := vec.New(dim)
		for d := 0; d < dim; d++ {
			c[d] = float64((i*(d+7))%k) * 25
		}
		centers[i] = c
	}
	return centers
}

// gitCommit best-effort resolves the current commit for the meta block.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeReport attaches any baseline, computes comparisons for rows with a
// per-point Cost, and writes the file with a trailing newline so it diffs
// cleanly.
func writeReport[R any](path string, meta Meta, rows map[string]R, baseDir string) error {
	rep := Report[R]{Meta: meta, Workloads: rows}
	if baseDir != "" {
		base, err := readReport[R](filepath.Join(baseDir, filepath.Base(path)))
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		rep.Baseline = base.Workloads
		rep.Comparison = make(map[string]Comparison)
		for name, cur := range rows {
			c, ok := any(cur).(interface{ cost() Cost })
			b, inBase := base.Workloads[name]
			if !ok || !inBase {
				continue
			}
			cc, bc := c.cost(), any(b).(interface{ cost() Cost }).cost()
			cmp := Comparison{
				NsRatio:     ratio(cc.NsPerPoint, bc.NsPerPoint),
				AllocsRatio: ratio(cc.AllocsPerPoint, bc.AllocsPerPoint),
				BytesRatio:  ratio(cc.BytesPerPoint, bc.BytesPerPoint),
			}
			if cmp != (Comparison{}) {
				rep.Comparison[name] = cmp
			}
		}
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport[R any](path string) (*Report[R], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report[R]
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
