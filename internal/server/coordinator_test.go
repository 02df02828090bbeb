package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/stream"
)

func requireCFsBitIdentical(t *testing.T, label string, got, want []cf.CF) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d CFs, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, b := &got[i], &want[i]
		if a.Kind() != b.Kind() || a.N != b.N ||
			math.Float64bits(a.SS) != math.Float64bits(b.SS) {
			t.Fatalf("%s CF %d: header slots differ: (%v,%d,%x) vs (%v,%d,%x)",
				label, i, a.Kind(), a.N, math.Float64bits(a.SS),
				b.Kind(), b.N, math.Float64bits(b.SS))
		}
		for d := range b.LS {
			if math.Float64bits(a.LS[d]) != math.Float64bits(b.LS[d]) {
				t.Fatalf("%s CF %d comp %d: %x vs %x",
					label, i, d, math.Float64bits(a.LS[d]), math.Float64bits(b.LS[d]))
			}
		}
	}
}

// requireSnapshotsBitIdentical compares the merged serving state of two
// snapshots slot by slot on Float64bits — N, LS components and the SS
// scalar of every subcluster and cluster CF (for the BETULA core those
// storage slots hold N, μ and the deviation moment), plus thresholds
// and centroids. Gen and Shards are bookkeeping, not merged state, and
// are deliberately not compared.
func requireSnapshotsBitIdentical(t *testing.T, got, want *stream.Snapshot) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil snapshot: got=%v want=%v", got != nil, want != nil)
	}
	if got.Points != want.Points {
		t.Fatalf("Points: %d vs %d", got.Points, want.Points)
	}
	if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
		t.Fatalf("Threshold bits: %x vs %x",
			math.Float64bits(got.Threshold), math.Float64bits(want.Threshold))
	}
	requireCFsBitIdentical(t, "subclusters", got.Subclusters, want.Subclusters)
	requireCFsBitIdentical(t, "clusters", got.Clusters, want.Clusters)
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%d centroids, want %d", len(got.Centroids), len(want.Centroids))
	}
	for i := range want.Centroids {
		for d := range want.Centroids[i] {
			if math.Float64bits(got.Centroids[i][d]) != math.Float64bits(want.Centroids[i][d]) {
				t.Fatalf("centroid %d dim %d: bits differ", i, d)
			}
		}
	}
}

// startShardDaemon runs a single-shard birchd-equivalent server for
// shard i of W and returns its base URL.
func startShardDaemon(t *testing.T, cfg core.Config, w int) string {
	t.Helper()
	scfg := stream.ShardEngineConfig(cfg, w)
	eng, err := stream.New(scfg, stream.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(EngineBackend{Eng: eng, Cfg: scfg}, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func(srv *Server, l net.Listener) {
		if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("daemon Serve: %v", err)
		}
	}(srv, l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("daemon Shutdown: %v", err)
		}
	})
	return "http://" + l.Addr().String()
}

// TestCoordinatorBitEquality is the scale-out exactness criterion: a
// coordinator fanning the same deterministic insert sequence across W
// single-shard birchd daemons must publish a merged snapshot that is
// bit-identical — Float64bits on every CF storage slot, threshold and
// centroid — to a single-process W-shard stream.Engine, for W ∈ {1,2,4}
// and both CF cores. Everything is aligned by construction: the peers
// run stream.ShardEngineConfig(cfg, W), the round-robin mirrors
// pickShard, summaries concatenate in shard order, and both sides merge
// through stream.MergeServingSnapshot.
func TestCoordinatorBitEquality(t *testing.T) {
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v_W%d", kind, w), func(t *testing.T) {
				const dim, k = 3, 5
				cfg := core.DefaultConfig(dim, k)
				cfg.Core = kind

				ref, err := stream.New(cfg, stream.Options{Shards: w})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()

				urls := make([]string, w)
				for i := 0; i < w; i++ {
					urls[i] = startShardDaemon(t, cfg, w)
				}
				coord, err := NewCoordinator(cfg, urls, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()

				// One deterministic sequence of mixed batch sizes, driven
				// sequentially through both sides. Batch boundaries matter:
				// each batch lands whole on one shard, chosen by call order.
				pts := testPoints(1200, dim)
				ctx := context.Background()
				sizes := []int{1, 7, 32, 3, 64, 5, 16}
				for i, s := 0, 0; i < len(pts); s++ {
					n := sizes[s%len(sizes)]
					if i+n > len(pts) {
						n = len(pts) - i
					}
					batch := pts[i : i+n]
					if err := ref.InsertBatch(ctx, batch); err != nil {
						t.Fatalf("reference insert: %v", err)
					}
					if err := coord.InsertBatch(ctx, batch); err != nil {
						t.Fatalf("coordinator insert: %v", err)
					}
					i += n
				}

				if err := ref.Flush(ctx); err != nil {
					t.Fatalf("reference flush: %v", err)
				}
				if err := coord.Flush(ctx); err != nil {
					t.Fatalf("coordinator flush: %v", err)
				}
				want := ref.Snapshot()
				got := coord.Snapshot()
				requireSnapshotsBitIdentical(t, got, want)

				// And the serving answers agree exactly, through the
				// coordinator's own classify path.
				wi, wd, ok := want.ClassifyBatch(pts[:64], 1)
				if !ok {
					t.Fatal("reference snapshot cannot classify")
				}
				gi, gd, ok := got.ClassifyBatch(pts[:64], 1)
				if !ok {
					t.Fatal("coordinator snapshot cannot classify")
				}
				for i := range wi {
					if gi[i] != wi[i] || math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
						t.Fatalf("classify %d: (%d,%v) vs (%d,%v)", i, gi[i], gd[i], wi[i], wd[i])
					}
				}

				// The coordinator's gauges track what it routed.
				st := coord.Stats()
				if st.Inserted != int64(len(pts)) || st.Published != int64(len(pts)) {
					t.Fatalf("coordinator stats: inserted=%d published=%d, want %d/%d",
						st.Inserted, st.Published, len(pts), len(pts))
				}
			})
		}
	}
}

// TestCoordinatorComposes nests a coordinator over one shard daemon and
// checks Summaries passes through — the property that lets coordinators
// stack without losing exactness.
func TestCoordinatorComposes(t *testing.T) {
	cfg := core.DefaultConfig(2, 3)
	url := startShardDaemon(t, cfg, 1)
	coord, err := NewCoordinator(cfg, []string{url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()
	if err := coord.InsertBatch(ctx, testPoints(200, 2)); err != nil {
		t.Fatal(err)
	}
	sums, err := coord.Summaries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var mass int64
	for _, s := range sums {
		mass += s.Points()
	}
	if mass != 200 {
		t.Fatalf("summaries cover %d points, want 200", mass)
	}
}

// TestCoordinatorPeerMismatch rejects a peer serving a different core
// kind instead of silently merging incompatible statistics.
func TestCoordinatorPeerMismatch(t *testing.T) {
	cfg := core.DefaultConfig(2, 3)
	cfg.Core = cf.CoreClassic
	url := startShardDaemon(t, cfg, 1)

	wrong := cfg
	wrong.Core = cf.CoreBETULA
	coord, err := NewCoordinator(wrong, []string{url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()
	if err := coord.InsertBatch(ctx, testPoints(50, 2)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Refresh(ctx); err == nil {
		t.Fatal("core-kind mismatch not rejected")
	}
}
