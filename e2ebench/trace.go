package main

// Tracing for the per-layer metrics. A traced pass records spans in
// memory from this package's own wrappers around the calls into each
// layer — nothing inside the program is instrumented — and writes them
// out at the end:
//
//   - client.request: the root span, around one server.Client call.
//   - server.handler: srv.Handler() served through a timing http.Handler.
//     Each connection carries one request at a time, so a handler span
//     belongs to the client span on the same connection that contains it.
//   - stream.insert_batch, stream.snapshot: a timing server.Backend. An
//     insert_batch span names the requests whose points it carries: the
//     client registers each in-flight insert under its first point's bits,
//     and the backend wrapper looks the batch's points up. A snapshot
//     span is the classify collector's flush; with one classify
//     connection (serve_mixed) the one that starts inside a classify
//     handler span is that request's.
//   - pager.wal_write, pager.wal_sync, pager.file_write, pager.file_sync:
//     a timing pager.FS handed to the store in DurableOptions.
//   - core.run: around pipeline_ds1o's core.Run call, timed by the
//     harness. Its children core.phase1 (engine creation through the end
//     of Phase 1) and core.finish (Phases 2–4) are laid out from the
//     program's own phase clocks in Result.Stats, because the benchmark
//     calls core.Run whole rather than a copy of its halves.
//
// Spans issued off the request's goroutine — the collector's coalesced
// backend calls, the shard worker's file I/O — carry their point or byte
// count and are reported as busy time per second or per point, not as a
// share of one request.
//
// Per-layer metrics (serving workloads report them over the workload's
// primary request: inserts on serve_ingest, classifies on serve_mixed):
//
//	server.handler_ms        mean handler span
//	server.transport_ms      mean client span minus its handler span
//	server.coalesce_wait_ms  mean time from a handler's start to the start
//	                         of the backend call the collector issued for
//	                         it, minus the request's frame decode
//	server.pts_per_flush.*   coalescing yield, from /stats
//	server.rejected_429      from /stats
//	wire.*                   frame encode/decode on the workload's batch shape
//	stream.insert_batch_p*   Backend.InsertBatch spans (mailbox backpressure included)
//	stream.publishes_per_s   snapshots published per second of the run
//	stream.compact_ms        MergeServingSnapshot over Backend.Summaries
//	stream.publish_lag_ms    median time from an insert's ack until the
//	                         published snapshot's Points covers it
//	stream.compactor_lag_pts mean Stats().CompactorLagPoints while running
//	pager.wal_*              WAL file writes and syncs: bytes per acked
//	                         point, counts, and busy ms per second
//	pager.page_*, core.*, cftree.*  the paper's resource-model counters and
//	                         tree shape (shard gauges when serving)
//	core.phase2_ms, hc.phase3_ms, kmeans.phase4_ms  Result.Stats
//	kmeans.finder_ns_per_query  the packed nearest-centroid scan per query
//	gen.late_p99_ms          how late the open-loop sender ran
//	trace.overhead           traced primary metric ÷ untraced primary metric

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"birch/internal/core"
	"birch/internal/pager"
	"birch/internal/server"
	"birch/internal/stream"
	"birch/internal/vec"
)

// Span-sum tolerances: how far the blocking-path terms may sum from the
// measured end-to-end mean, as a share of that mean, before the traced
// run fails its span-sum check. pipeline_ds1o's phase clocks leave out
// only engine creation. The serving terms leave out the reply's way back
// from the collector to the handler goroutine and the response write —
// a few microseconds a request, about 4% of serve_ingest's ~0.16 ms
// traced insert — and the client wrapper's own overhead, about 1.5%.
const (
	phaseSumTolerance = 0.05
	serveSumTolerance = 0.10
)

// span is one traced interval. Times are offsets from the tracer's base.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the causing span, -1 for roots and async spans
	Conn   int           `json:"conn"`   // connection id, -1 off the wire
	Op     string        `json:"op,omitempty"`
	N      int64         `json:"n"` // points or bytes carried
	Failed bool          `json:"failed,omitempty"`
	Req    int           `json:"req,omitempty"`  // client.request: the request's id
	Reqs   []int         `json:"reqs,omitempty"` // stream.insert_batch: the requests carried
}

func (s span) dur() time.Duration { return s.End - s.Start }

type tracer struct {
	base     time.Time
	mu       sync.Mutex
	spans    []span
	conns    map[string]int
	inflight map[uint64]inflight // in-flight inserts by their first point's bits
	reqs     int                 // request ids handed out
	name     string
}

// inflight is one insert request between send and answer.
type inflight struct{ id, n int }

func newTracer() *tracer {
	return &tracer{base: time.Now(), conns: make(map[string]int),
		inflight: make(map[uint64]inflight), spans: make([]span, 0, 1<<16)}
}

// pointKey identifies an in-flight request by its first point. The
// inputs are continuous draws, so two requests in flight together never
// share one.
func pointKey(p vec.Vector) uint64 { return math.Float64bits(p[0]) ^ math.Float64bits(p[len(p)-1])<<1 }

func (t *tracer) begin() time.Duration { return time.Since(t.base) }

// end records a span that began at start.
func (t *tracer) end(name string, start time.Duration, conn int, n int64) {
	t.add(span{Name: name, Start: start, End: time.Since(t.base), Parent: -1, Conn: conn, N: n})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// connID maps a loopback address (client LocalAddr == server RemoteAddr)
// to a small id.
func (t *tracer) connID(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.conns[addr]
	if !ok {
		id = len(t.conns)
		t.conns[addr] = id
	}
	return id
}

// clientRequest runs one client call as a client.request span, learning
// the connection it went out on from httptrace.
// An insert is registered as in flight for the call's duration, so the
// backend wrapper can name it.
func (t *tracer) clientRequest(ctx context.Context, op string, pts []vec.Vector, call func(context.Context) (int64, error)) (int64, error) {
	var addr string
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { addr = info.Conn.LocalAddr().String() },
	})
	key := pointKey(pts[0])
	t.mu.Lock()
	t.reqs++
	id := t.reqs
	if op == "insert" {
		t.inflight[key] = inflight{id: id, n: len(pts)}
	}
	t.mu.Unlock()
	start := t.begin()
	n, err := call(ctx)
	s := span{Name: "client.request", Start: start, End: time.Since(t.base), Parent: -1,
		Conn: t.connID(addr), Op: op, N: int64(len(pts)), Failed: err != nil, Req: id}
	t.mu.Lock()
	if op == "insert" {
		delete(t.inflight, key)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return n, err
}

// carried names the in-flight insert requests whose points make up pts,
// in order. Points inserted from outside a traced request name none.
func (t *tracer) carried(pts []vec.Vector) []int {
	var ids []int
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < len(pts); {
		r, ok := t.inflight[pointKey(pts[i])]
		if !ok {
			break
		}
		ids = append(ids, r.id)
		i += r.n
	}
	return ids
}

// runSpans records one pipeline_ds1o round: core.run as timed by the
// harness around core.Run, and its children core.phase1 and core.finish
// laid end to end from the program's phase clocks.
func (t *tracer) runSpans(start, end time.Time, st core.RunStats, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := len(t.spans)
	from := start.Sub(t.base)
	p1 := from + st.Phase1.Duration
	fin := p1 + st.Phase2.Duration + st.Phase3.Duration + st.Phase4.Duration
	t.spans = append(t.spans,
		span{Name: "core.run", Start: from, End: end.Sub(t.base), Parent: -1, Conn: -1, N: n},
		span{Name: "core.phase1", Start: from, End: p1, Parent: root, Conn: -1, N: n},
		span{Name: "core.finish", Start: p1, End: fin, Parent: root, Conn: -1, N: n})
}

// handler times every batch request the server answers.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.begin()
		next.ServeHTTP(w, r)
		var op string
		switch r.URL.Path {
		case "/insert-batch":
			op = "insert"
		case "/classify-batch":
			op = "classify"
		default:
			return
		}
		t.add(span{Name: "server.handler", Start: start, End: time.Since(t.base), Parent: -1,
			Conn: t.connID(r.RemoteAddr), Op: op})
	})
}

// tracedBackend times the server's calls into the stream layer.
type tracedBackend struct {
	server.Backend
	t *tracer
}

func (b tracedBackend) InsertBatch(ctx context.Context, pts []vec.Vector) error {
	reqs := b.t.carried(pts)
	start := b.t.begin()
	err := b.Backend.InsertBatch(ctx, pts)
	b.t.add(span{Name: "stream.insert_batch", Start: start, End: b.t.begin(), Parent: -1, Conn: -1,
		N: int64(len(pts)), Reqs: reqs})
	return err
}

func (b tracedBackend) Snapshot() *stream.Snapshot {
	start := b.t.begin()
	s := b.Backend.Snapshot()
	b.t.end("stream.snapshot", start, -1, 0)
	return s
}

// tracedFS times the store's file writes and syncs.
type tracedFS struct {
	pager.FS
	t *tracer
}

func (f tracedFS) Create(name string) (pager.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t, wal: strings.Contains(name, ".wal.")}, nil
}

func (f tracedFS) Open(name string) (pager.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t, wal: strings.Contains(name, ".wal.")}, nil
}

type tracedFile struct {
	pager.File
	t   *tracer
	wal bool
}

func (f tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.t.begin()
	n, err := f.File.WriteAt(p, off)
	name := "pager.file_write"
	if f.wal {
		name = "pager.wal_write"
	}
	f.t.end(name, start, -1, int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	start := f.t.begin()
	err := f.File.Sync()
	name := "pager.file_sync"
	if f.wal {
		name = "pager.wal_sync"
	}
	f.t.end(name, start, -1, 0)
	return err
}

// watcher samples the engine's published snapshot and compactor lag on a
// fixed tick while a traced serving run is timed.
type watcher struct {
	t       *tracer
	quit    chan struct{}
	done    chan struct{}
	pubs    []publication
	lagPts  []float64
	stopped sync.Once
}

type publication struct {
	at     time.Duration
	points int64
}

// watch starts sampling eng; on a nil tracer it returns nil, whose stop
// is a no-op.
func (t *tracer) watch(eng *stream.Engine) *watcher {
	if t == nil {
		return nil
	}
	w := &watcher{t: t, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(serveTraceTick)
		defer tick.Stop()
		var gen int64 = -1
		for {
			if s := eng.Snapshot(); s != nil && s.Gen != gen {
				gen = s.Gen
				w.pubs = append(w.pubs, publication{at: t.begin(), points: s.Points})
			}
			w.lagPts = append(w.lagPts, float64(eng.Stats().CompactorLagPoints))
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends sampling after one last sample and waits for the sampler.
func (w *watcher) stop() {
	if w == nil {
		return
	}
	w.stopped.Do(func() { close(w.quit) })
	<-w.done
}

// writeFile writes every span, one JSON object a line, to
// dir/trace-<workload>.jsonl.
func (t *tracer) writeFile(dir string) error {
	f, err := os.Create(filepath.Join(dir, "trace-"+t.name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// byName returns the spans named name, sorted by start.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// wireCost is the frame codec's cost on one request shape.
type wireCost struct {
	encodeNsPerPt, decodeNsPerPt, bytesPerPt float64
	replyNs                                  float64 // encoding the response frame
}

// measureWire times the binary frame codec on the workload's own request
// shape: batch points per frame, drawn from pts. The server decodes the
// request and encodes the reply (an ack, or a classify result).
func measureWire(pts flatPoints, batch int, classify bool) wireCost {
	hdr := make([]vec.Vector, batch)
	pts.fill(hdr, 0)
	var frame, reply []byte
	var backing []float64
	var dec []vec.Vector
	idx := make([]int, batch)
	dist := make([]float64, batch)
	const iters = 2000
	best := func(fn func()) float64 {
		b := math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			b = math.Min(b, float64(time.Since(start).Nanoseconds())/iters)
		}
		return b
	}
	var c wireCost
	c.encodeNsPerPt = best(func() {
		frame, _ = server.AppendPointsFrame(frame[:0], hdr, pts.dim) // shape is valid by construction
	}) / float64(batch)
	c.decodeNsPerPt = best(func() {
		_, payload, _ := server.DecodeFrame(frame)
		backing, dec, _ = server.DecodePointsInto(payload, pts.dim, backing, dec)
	}) / float64(batch)
	c.bytesPerPt = float64(len(frame)) / float64(batch)
	c.replyNs = best(func() {
		if classify {
			reply = server.AppendClassifyResultFrame(reply[:0], idx, dist)
		} else {
			reply = server.AppendAckFrame(reply[:0], int64(batch))
		}
	})
	return c
}

// serveLayers is what a traced serving pass hands the per-layer analysis.
type serveLayers struct {
	op            string // the workload's primary request: "insert" or "classify"
	ptsPerReq     int
	seconds       float64
	acked         int64 // insert points acked in the timed phase
	insertedBase  int64 // engine Inserted when the timed phase began
	gen           []*sender
	queries       []vec.Vector // the workload's classify queries, for the scan timing
	wire          wireCost
	stats         server.StatsPayload
	before, after stream.Stats
	watch         *watcher
	from, to      time.Duration // the timed phase, as tracer offsets
}

// timed keeps the spans that started within the timed phase.
func (sl serveLayers) timed(spans []span) []span {
	out := spans[:0]
	for _, s := range spans {
		if s.Start >= sl.from && s.Start <= sl.to {
			out = append(out, s)
		}
	}
	return out
}

// fill computes the serving per-layer metrics from the traced pass and
// runs the span-sum check.
func (sl serveLayers) fill(out *outcome, tr *tracer, snap *stream.Snapshot) {
	L := out.layers
	finderNs := 0.0
	if snap != nil {
		finderNs = bestNsPer(len(sl.queries), func() { snap.ClassifyBatch(sl.queries, 1) })
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	all := tr.spans
	inserts := sl.timed(byName(all, "stream.insert_batch"))
	snaps := sl.timed(byName(all, "stream.snapshot"))

	// Match each primary client span to the handler span on its connection
	// that it contains, and record the client span as the handler's parent;
	// then find the backend call the collector issued for the request: the
	// insert_batch span that carried its points, or, for a classify, the
	// snapshot span that starts inside its handler span.
	byConn := make(map[int][]int) // conn -> indexes into all, by start
	for i, h := range all {
		if h.Name == "server.handler" && h.Op == sl.op {
			byConn[h.Conn] = append(byConn[h.Conn], i)
		}
	}
	for _, hs := range byConn {
		sort.Slice(hs, func(a, b int) bool { return all[hs[a]].Start < all[hs[b]].Start })
	}
	carrier := make(map[int]span) // request id -> its insert_batch span
	for _, b := range inserts {
		for _, id := range b.Reqs {
			carrier[id] = b
		}
	}
	backendFor := func(c, h span) (span, bool) {
		if sl.op == "insert" {
			b, ok := carrier[c.Req]
			return b, ok
		}
		k := sort.Search(len(snaps), func(k int) bool { return snaps[k].Start >= h.Start })
		if k == len(snaps) || snaps[k].Start >= h.End {
			return span{}, false
		}
		return snaps[k], true
	}
	scanNs := 0.0
	if sl.op == "classify" {
		scanNs = finderNs * sl.stats.Server.AvgClassifyBatch
	}
	decodeNs := sl.wire.decodeNsPerPt * float64(sl.ptsPerReq)
	var nReq, matched int
	var sumClient, sumHandler, sumWait, sumBackend time.Duration
	for ci, c := range all {
		if c.Name != "client.request" || c.Op != sl.op || c.Failed {
			continue
		}
		nReq++
		hs := byConn[c.Conn]
		k := sort.Search(len(hs), func(k int) bool { return all[hs[k]].Start >= c.Start })
		if k == len(hs) || all[hs[k]].End > c.End {
			continue
		}
		h := &all[hs[k]]
		b, ok := backendFor(c, *h)
		if !ok {
			continue
		}
		h.Parent = ci
		matched++
		sumClient += c.dur()
		sumHandler += h.dur()
		sumWait += b.Start - h.Start
		sumBackend += b.dur()
	}
	if matched > 0 {
		m := float64(matched)
		backend := ms(sumBackend) / m
		decode := decodeNs / 1e6
		codec := (decodeNs + sl.wire.replyNs) / 1e6
		scan := scanNs / 1e6
		L["server.handler_ms"] = ms(sumHandler) / m
		L["server.transport_ms"] = ms(sumClient-sumHandler) / m
		L["server.coalesce_wait_ms"] = ms(sumWait)/m - decode

		// Span-sum check: transport, coalescing wait and backend call from
		// the spans, codec and scan from their own timings, against the
		// generator's own mean (answer − send), timed outside the spans.
		// What the terms leave out is the handler's tail after the
		// backend returns, beyond the scan and the reply encode.
		var genBusy time.Duration
		var genN int
		for _, s := range sl.gen {
			genBusy += s.busy
			genN += len(s.lats)
		}
		e2e := ms(genBusy) / float64(genN)
		sum := L["server.transport_ms"] + L["server.coalesce_wait_ms"] + backend + codec + scan
		gap := math.Abs(sum-e2e) / e2e
		out.check("span_sum", gap <= serveSumTolerance && L["server.coalesce_wait_ms"] >= -serveSumTolerance*e2e,
			"transport %.4f + coalesce wait %.4f + backend %.4f + codec %.4f + scan %.4f = %.4f ms vs end-to-end mean %.4f ms: gap %.2f%% (tolerance %.0f%%)",
			L["server.transport_ms"], L["server.coalesce_wait_ms"], backend, codec, scan, sum, e2e, 100*gap, 100*serveSumTolerance)
	}
	out.check("spans_matched", nReq > 0 && float64(matched) >= 0.99*float64(nReq),
		"%d of %d %s client spans matched a handler span and a backend call", matched, nReq, sl.op)

	L["server.pts_per_flush.insert"] = sl.stats.Server.AvgInsertBatch
	L["server.pts_per_flush.classify"] = sl.stats.Server.AvgClassifyBatch
	L["server.rejected_429"] = float64(sl.stats.Server.Rejected429)
	L["wire.encode_ns_per_pt"] = sl.wire.encodeNsPerPt
	L["wire.decode_ns_per_pt"] = sl.wire.decodeNsPerPt
	L["wire.bytes_per_pt"] = sl.wire.bytesPerPt

	ib := make([]float64, len(inserts))
	for i, s := range inserts {
		ib[i] = ms(s.dur())
	}
	L["stream.insert_batch_p50_ms"] = quantile(ib, 0.50)
	L["stream.insert_batch_p99_ms"] = quantile(ib, 0.99)
	L["stream.publishes_per_s"] = float64(sl.after.Compactions-sl.before.Compactions) / sl.seconds
	L["stream.publish_lag_ms"] = publishLag(byName(all, "client.request"), inserts, sl.watch.pubs, sl.insertedBase)
	L["stream.compactor_lag_pts"] = mean(sl.watch.lagPts)

	walBytes, walWrites, walWriteBusy := busy(sl.timed(byName(all, "pager.wal_write")))
	_, walSyncs, walSyncBusy := busy(sl.timed(byName(all, "pager.wal_sync")))
	if sl.acked > 0 {
		L["pager.wal_bytes_per_pt"] = float64(walBytes) / float64(sl.acked)
	}
	L["pager.wal_writes"] = float64(walWrites)
	L["pager.wal_write_ms"] = ms(walWriteBusy) / sl.seconds
	L["pager.wal_syncs"] = float64(walSyncs)
	L["pager.wal_sync_ms"] = ms(walSyncBusy) / sl.seconds

	var rebuilds, nodes, leaves, height int
	var pw, pr int64
	var thr float64
	for _, sh := range sl.after.Shards {
		rebuilds += sh.Rebuilds
		nodes += sh.Nodes
		leaves += sh.Subclusters
		height = max(height, sh.Height)
		thr = math.Max(thr, sh.Threshold)
		pw += sh.IO.PageWrites
		pr += sh.IO.PageReads
	}
	L["core.rebuilds"] = float64(rebuilds)
	L["core.final_threshold"] = thr
	L["core.outlier_spills"] = 0 // shard engines run with outlier handling off
	L["cftree.leaf_entries"] = float64(leaves)
	L["cftree.nodes"] = float64(nodes)
	L["cftree.height"] = float64(height)
	L["pager.page_writes"] = float64(pw)
	L["pager.page_reads"] = float64(pr)
	L["kmeans.finder_ns_per_query"] = finderNs
	if sl.op == "classify" {
		var late []time.Duration
		for _, s := range sl.gen {
			late = append(late, s.late...)
		}
		L["gen.late_p99_ms"] = quantile(durationsMS(late), 0.99)
	}
	zeroLayers(L, "core.phase", "hc.", "kmeans.phase4", "gen.")
}

// bestNsPer runs fn, which handles n queries, five times and returns the
// best time per query in nanoseconds.
func bestNsPer(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// busy sums the bytes, count and busy time of spans.
func busy(spans []span) (bytes int64, count int, total time.Duration) {
	for _, s := range spans {
		bytes += s.N
		total += s.dur()
	}
	return bytes, len(spans), total
}

// publishLag is the median time from an insert's ack until a published
// snapshot covers it. An ack covers every point the engine had accepted
// by the time it was sent back, so the insert is covered once the
// snapshot's Points reaches the engine's cumulative count at the last
// Backend.InsertBatch that finished before the ack.
func publishLag(clients, inserts []span, pubs []publication, base int64) float64 {
	if len(pubs) == 0 || len(inserts) == 0 {
		return 0
	}
	ends := make([]span, len(inserts))
	copy(ends, inserts)
	sort.Slice(ends, func(i, j int) bool { return ends[i].End < ends[j].End })
	cum := make([]int64, len(ends))
	total := base
	for i, s := range ends {
		total += s.N
		cum[i] = total
	}
	var lags []float64
	for _, c := range clients {
		if c.Op != "insert" || c.Failed {
			continue
		}
		k := sort.Search(len(ends), func(k int) bool { return ends[k].End > c.End }) - 1
		if k < 0 {
			continue
		}
		need := cum[k]
		// Both conditions only turn true as j grows: publications are in
		// time order and their point counts never fall.
		j := sort.Search(len(pubs), func(j int) bool { return pubs[j].at >= c.End && pubs[j].points >= need })
		if j < len(pubs) {
			lags = append(lags, ms(pubs[j].at-c.End))
		}
	}
	return median(lags)
}

// zeroLayers sets every per-layer metric under the given prefixes that
// the pass did not measure to 0: the workload bypasses that layer.
func zeroLayers(layers map[string]float64, prefixes ...string) {
	for _, s := range perLayer {
		if _, ok := layers[s.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(s.name, p) {
				layers[s.name] = 0
			}
		}
	}
}
