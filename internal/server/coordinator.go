package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/stream"
	"birch/internal/vec"
)

// Coordinator is a Backend that fans inserts across W remote birchd
// shard daemons and serves a snapshot merged from their CF summaries.
//
// Exactness contract: each peer must run a single-shard engine built
// with stream.ShardEngineConfig(cfg, W) — exactly the configuration the
// in-process engine gives its own W shards (memory split W ways,
// refinement/outlier handling/delayed splits off). Round-robin here
// mirrors stream.Engine.pickShard — int((rr.Add(1)-1) % W), one whole
// batch per call — and summaries are merged in fixed peer order by
// stream.MergeServingSnapshot. The CF Additivity Theorem does the rest:
// for the same sequence of Insert/InsertBatch calls, the coordinator's
// merged snapshot is bit-identical to a W-shard in-process engine's,
// because both run the identical merge over identical summaries. (As
// with the in-process engine, which batch lands on which shard is
// determined by call order, so bit-reproducibility assumes a
// deterministic call sequence.)
type Coordinator struct {
	cfg     core.Config
	peers   []*Client
	rr      atomic.Uint64
	snap    atomic.Pointer[stream.Snapshot]
	gen     atomic.Int64
	insertN atomic.Int64

	refreshMu sync.Mutex // serializes Refresh's merge+publish

	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewCoordinator wires a coordinator over the daemons at peerURLs. cfg
// must be the full (unsharded) engine config; the peers are expected to
// run stream.ShardEngineConfig(cfg, len(peerURLs)). If refresh > 0 a
// background loop re-pulls summaries and republishes the merged
// snapshot at that period.
func NewCoordinator(cfg core.Config, peerURLs []string, refresh time.Duration) (*Coordinator, error) {
	if len(peerURLs) == 0 {
		return nil, errors.New("server: coordinator needs at least one peer")
	}
	c := &Coordinator{
		cfg:   cfg,
		peers: make([]*Client, len(peerURLs)),
		quit:  make(chan struct{}),
	}
	for i, u := range peerURLs {
		c.peers[i] = NewClient(u)
	}
	if refresh > 0 {
		c.wg.Add(1)
		go c.runRefresher(refresh)
	}
	return c, nil
}

// Dim implements Backend.
func (c *Coordinator) Dim() int { return c.cfg.Dim }

// CoreKind implements Backend.
func (c *Coordinator) CoreKind() cf.CoreKind { return c.cfg.Core }

// InsertBatch implements Backend: the whole batch goes to one peer,
// chosen by the same round-robin arithmetic the in-process engine uses
// to pick a shard mailbox.
func (c *Coordinator) InsertBatch(ctx context.Context, pts []vec.Vector) error {
	peer := c.peers[int((c.rr.Add(1)-1)%uint64(len(c.peers)))]
	n, err := peer.InsertBatch(ctx, pts, c.cfg.Dim)
	if err != nil {
		return err
	}
	if n != int64(len(pts)) {
		return fmt.Errorf("server: peer acked %d of %d points", n, len(pts))
	}
	c.insertN.Add(n)
	return nil
}

// InsertSparseBatch implements Backend: like InsertBatch, the whole
// sparse batch goes to one round-robin peer over the sparse wire frame.
// Dense and sparse batches share the one round-robin cursor, mirroring
// the in-process engine's single pickShard counter.
func (c *Coordinator) InsertSparseBatch(ctx context.Context, sps []vec.Sparse) error {
	peer := c.peers[int((c.rr.Add(1)-1)%uint64(len(c.peers)))]
	n, err := peer.InsertSparseBatch(ctx, sps, c.cfg.Dim)
	if err != nil {
		return err
	}
	if n != int64(len(sps)) {
		return fmt.Errorf("server: peer acked %d of %d sparse points", n, len(sps))
	}
	c.insertN.Add(n)
	return nil
}

// peerSummaries pulls every peer's summaries concurrently and
// concatenates them in fixed peer order — the order is part of the
// bit-equality contract with the in-process engine, whose syncShards
// reports in shard order.
func (c *Coordinator) peerSummaries(ctx context.Context) ([]core.Summary, error) {
	type pull struct {
		i    int
		sums []core.Summary
		err  error
	}
	// The channel is buffered to the full fan-out, so every puller can
	// complete even when an error makes this function return early — no
	// WaitGroup needed, and no goroutine can leak.
	results := make(chan pull, len(c.peers))
	for i, p := range c.peers {
		go func(i int, p *Client, out chan<- pull) {
			kind, dim, sums, err := p.Summaries(ctx)
			if err == nil && (kind != c.cfg.Core || dim != c.cfg.Dim) {
				err = fmt.Errorf("server: peer %d serves core=%v dim=%d, coordinator expects core=%v dim=%d",
					i, kind, dim, c.cfg.Core, c.cfg.Dim)
			}
			out <- pull{i: i, sums: sums, err: err}
		}(i, p, results)
	}
	byPeer := make([][]core.Summary, len(c.peers))
	for range c.peers {
		r := <-results
		if r.err != nil {
			return nil, fmt.Errorf("server: pulling summaries from peer %d: %w", r.i, r.err)
		}
		byPeer[r.i] = r.sums
	}
	var all []core.Summary
	for _, s := range byPeer {
		all = append(all, s...)
	}
	return all, nil
}

// Refresh pulls fresh summaries from every peer, merges them with the
// engine's own serving pipeline, and publishes the result. This is the
// coordinator's snapshot publication point, mirroring the engine's
// publish.
//
//birchlint:publishpath
func (c *Coordinator) Refresh(ctx context.Context) error {
	sums, err := c.peerSummaries(ctx)
	if err != nil {
		return err
	}
	snap, err := stream.MergeServingSnapshot(c.cfg, sums)
	if err != nil {
		return err
	}
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	snap.Gen = c.gen.Add(1)
	c.snap.Store(snap)
	return nil
}

// runRefresher republishes at a fixed period until Close. Errors are
// dropped: a failed refresh keeps the previous snapshot serving, and
// the staleness shows up in Stats().
func (c *Coordinator) runRefresher(period time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), period)
			_ = c.Refresh(ctx)
			cancel()
		case <-c.quit:
			return
		}
	}
}

// Snapshot implements Backend.
func (c *Coordinator) Snapshot() *stream.Snapshot { return c.snap.Load() }

// Summaries implements Backend: a coordinator's summaries are the
// concatenation of its peers', so coordinators compose (a higher-level
// coordinator over coordinators still merges exactly).
func (c *Coordinator) Summaries(ctx context.Context) ([]core.Summary, error) {
	return c.peerSummaries(ctx)
}

// Stats implements Backend. Inserted counts only points routed through
// this coordinator; if clients also write to the shard daemons
// directly, the lag gauge undercounts.
func (c *Coordinator) Stats() stream.Stats {
	st := stream.Stats{
		Inserted:    c.insertN.Load(),
		Compactions: c.gen.Load(),
	}
	if s := c.snap.Load(); s != nil {
		st.Published = s.Points
		st.Generation = s.Gen
		st.Clusters = len(s.Clusters)
		st.Subclusters = len(s.Subclusters)
	}
	if lag := st.Inserted - st.Published; lag > 0 {
		st.CompactorLagPoints = lag
	}
	return st
}

// Flush implements Backend: flush every peer (so their mailboxes drain
// into their trees), then refresh the merged snapshot.
func (c *Coordinator) Flush(ctx context.Context) error {
	errs := make(chan error, len(c.peers))
	for i, p := range c.peers {
		go func(i int, p *Client, out chan<- error) {
			if err := p.Flush(ctx); err != nil {
				out <- fmt.Errorf("server: flushing peer %d: %w", i, err)
				return
			}
			out <- nil
		}(i, p, errs)
	}
	var first error
	for range c.peers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return c.Refresh(ctx)
}

// Err implements Backend. A coordinator holds no points of its own: a
// failed peer insert is already returned to its caller.
func (c *Coordinator) Err() error { return nil }

// Close implements Backend: stops the refresher. The peers are
// independent daemons with their own lifecycles and are left running.
// The last published snapshot stays readable.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.quit)
		c.wg.Wait()
	})
	return nil
}
