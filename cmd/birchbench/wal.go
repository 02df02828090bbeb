package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"birch/internal/faultfs"
	"birch/internal/pager"
	"birch/internal/stream"
	"birch/internal/vec"
)

// This file is the durability benchmark behind BENCH_wal.json: what the
// checkpoint + write-ahead-log layer (DESIGN.md §14) costs at ingest
// time, and what a warm restart costs at recovery time.
//
// Three ingest rows run the identical offered load (same points, same
// writer/shard count) and differ only in the durability setting:
//
//   - wal_off:    the volatile engine — the pre-durability baseline.
//   - wal_rotate: SyncEvery=0 — records reach the OS on every append but
//     fsync happens only at segment rotation, Checkpoint and Close. This
//     is the bounded-loss production setting.
//   - wal_fsync1: SyncEvery=1 — every appended record is fsynced before
//     the shard applies it. The full-durability ceiling; on a real disk
//     this row is dominated by fsync latency, which is the point.
//
// The durable rows report their throughput ratio against wal_off
// (durable_vs_off, < 1 means the WAL costs throughput) and the WAL bytes
// written per ingested point (framing overhead included).
//
// wal_replay measures the recovery path with the ingest cost factored
// out: a fully-synced store is crashed (handles invalidated, nothing
// checkpointed since open), and the row times Open's WAL replay back
// into shard trees, reporting replayed points/sec.
//
// The ingest rows run on a real directory (pager.DirFS) so fsync hits an
// actual file system; the replay row runs on the in-memory fault disk so
// it times replay itself, not page-cache luck.

// walRow is one durability workload; ReplayNsPerPoint is set on
// wal_replay only, the durability columns on the durable rows only.
type walRow struct {
	Shape
	Workers          int     `json:"workers,omitempty"`
	PointsPerSec     float64 `json:"points_per_sec,omitempty"`
	DurableVsOff     float64 `json:"durable_vs_off,omitempty"`
	WALBytesPerPoint float64 `json:"wal_bytes_per_point,omitempty"`
	ReplayNsPerPoint float64 `json:"replay_ns_per_point,omitempty"`
}

type walSpec struct {
	Name      string
	Durable   bool
	SyncEvery int
}

func walSpecs() []walSpec {
	return []walSpec{
		{"wal_off_w4", false, 0},
		{"wal_rotate_w4", true, 0},
		{"wal_fsync1_w4", true, 1},
	}
}

const (
	walBenchWriters = 4
	walBenchPoints  = 100000
	walSegmentBytes = 1 << 20
)

func runWAL(o opts) map[string]walRow {
	n := walBenchPoints / o.div()
	const seed = 401
	pts := blobs(seed, streamBenchDim, streamBenchK, n)
	shape := Shape{streamBenchDim, n, seed}

	// The log's size is fixed by the point stream (one record per Insert),
	// so the last rep's byte count stands for every rep.
	specs := walSpecs()
	walBytes := make([]float64, len(specs))
	fns := make([]func() rate, len(specs))
	for i, spec := range specs {
		fns[i] = func() rate {
			var r rate
			r, walBytes[i] = runWALIngest(pts, spec)
			return r
		}
	}
	// Recovery cost: replay a fully-synced WAL into fresh shard trees.
	fns = append(fns, func() rate { return runWALReplay(pts) })
	best := bestOf(o.reps, fns...)

	out := make(map[string]walRow)
	off := best[0].pps
	for i, spec := range specs {
		w := walRow{Shape: shape, Workers: walBenchWriters, PointsPerSec: best[i].pps}
		if spec.Durable {
			w.DurableVsOff = ratio(best[i].pps, off)
			w.WALBytesPerPoint = walBytes[i] / float64(n)
		}
		out[spec.Name] = w
	}
	replay := best[len(specs)].pps
	out["wal_replay"] = walRow{Shape: shape, Workers: walBenchWriters, PointsPerSec: replay, ReplayNsPerPoint: ratio(1e9, replay)}
	return out
}

func walNames(opts) []string {
	return append(specNames(walSpecs(), func(s walSpec) string { return s.Name }), "wal_replay")
}

func checkWAL(_ opts, rows map[string]walRow) error {
	for _, spec := range walSpecs() {
		w := rows[spec.Name]
		if !positive(w.PointsPerSec) {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
		if spec.Durable && !positive(w.DurableVsOff, w.WALBytesPerPoint) {
			return fmt.Errorf("workload %q missing durability columns", spec.Name)
		}
	}
	if w := rows["wal_replay"]; !positive(w.PointsPerSec, w.ReplayNsPerPoint) {
		return fmt.Errorf("workload %q has degenerate measurements", "wal_replay")
	}
	return nil
}

// runWALIngest drives the streaming engine to a full Flush under the
// given durability setting and returns its wall-clock rate plus the WAL
// bytes on disk at the timer stop (before Close's final checkpoint
// truncates the log).
func runWALIngest(pts []vec.Vector, spec walSpec) (r rate, walBytes float64) {
	var dur *stream.DurableOptions
	var fs pager.FS
	if spec.Durable {
		dir, err := os.MkdirTemp("", "birchbench-wal-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		fs = pager.DirFS(dir)
		dur = &stream.DurableOptions{FS: fs, SegmentBytes: walSegmentBytes, SyncEvery: spec.SyncEvery}
	}
	eng, _, err := stream.Open(streamBenchConfig(), stream.Options{Shards: walBenchWriters}, dur)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	insert := func(p vec.Vector) error { return eng.Insert(ctx, p) }
	r = driveIngest(pts, walBenchWriters, 0, insert, nil, func() {
		if err := eng.Flush(ctx); err != nil {
			fatal(err)
		}
	})
	if spec.Durable {
		walBytes = float64(walBytesOn(fs))
	}
	if err := eng.Close(); err != nil {
		fatal(err)
	}
	return r, walBytes
}

// runWALReplay builds a fully-synced store whose WAL holds the entire
// stream, crashes it, and times the warm restart's replay.
func runWALReplay(pts []vec.Vector) rate {
	cfg := streamBenchConfig()
	disk := faultfs.NewDisk()
	dur := &stream.DurableOptions{FS: disk, SegmentBytes: walSegmentBytes, SyncEvery: 1}
	eng, _, err := stream.Open(cfg, stream.Options{Shards: walBenchWriters}, dur)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	const batch = 256
	for lo := 0; lo < len(pts); lo += batch {
		hi := lo + batch
		if hi > len(pts) {
			hi = len(pts)
		}
		if err := eng.InsertBatch(ctx, pts[lo:hi]); err != nil {
			fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		fatal(err)
	}
	// Crash instead of Close: Close would checkpoint and truncate the WAL,
	// leaving nothing to replay. Every record is already durable.
	disk.Crash()
	_ = eng.Close()

	start := time.Now()
	eng2, rec, err := stream.Open(cfg, stream.Options{}, dur)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if rec.ReplayedPoints != int64(len(pts)) {
		fatal(fmt.Errorf("wal bench: replayed %d of %d points", rec.ReplayedPoints, len(pts)))
	}
	if err := eng2.Close(); err != nil {
		fatal(err)
	}
	return rate{pps: float64(len(pts)) / elapsed.Seconds()}
}

// walBytesOn sums the sizes of all WAL segment files on fs.
func walBytesOn(fs pager.FS) int64 {
	names, err := fs.List()
	if err != nil {
		fatal(err)
	}
	var total int64
	for _, name := range names {
		if !strings.Contains(name, ".wal.") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		total += size
	}
	return total
}
