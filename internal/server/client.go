package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/vec"
)

// ErrOverloaded reports a 429 from the server: the admission queue was
// full. Returned errors wrap it via OverloadedError, which carries the
// Retry-After hint; test with errors.Is(err, ErrOverloaded).
var ErrOverloaded = errors.New("server: overloaded")

// OverloadedError is the concrete 429 error, carrying the server's
// Retry-After hint in seconds.
type OverloadedError struct {
	RetryAfter int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("server: overloaded (retry after %ds)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Client is a stdlib HTTP client for a birchd daemon. Batch methods use
// the binary frame tier; single-point methods use JSON. A Client is
// safe for concurrent use; its transport pools connections per host.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base, e.g.
// "http://127.0.0.1:7461". The transport keeps enough idle connections
// to sustain a load generator's concurrency.
func NewClient(base string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr}}
}

// do issues one request and returns the response body on 2xx. Non-2xx
// responses become errors; 429 maps to ErrOverloaded.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if retry <= 0 {
			retry = 1
		}
		return nil, &OverloadedError{RetryAfter: retry}
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("server: %s (%d)", e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("server: status %d", resp.StatusCode)
	}
	return data, nil
}

// Insert sends one point through the JSON tier.
func (c *Client) Insert(ctx context.Context, p vec.Vector) error {
	body, err := json.Marshal(jsonPoints{Point: p})
	if err != nil {
		return err
	}
	_, err = c.do(ctx, http.MethodPost, "/insert", "application/json", body)
	return err
}

// InsertBatch sends a batch through the binary tier and returns the
// server's accepted count.
func (c *Client) InsertBatch(ctx context.Context, pts []vec.Vector, dim int) (int64, error) {
	frame, err := AppendPointsFrame(nil, pts, dim)
	if err != nil {
		return 0, err
	}
	data, err := c.do(ctx, http.MethodPost, "/insert-batch", ContentTypeFrame, frame)
	if err != nil {
		return 0, err
	}
	typ, payload, err := DecodeFrame(data)
	if err != nil || typ != MsgAck {
		return 0, fmt.Errorf("server: bad ack frame (type %d): %w", typ, err)
	}
	return DecodeAck(payload)
}

// InsertSparseBatch sends a sparse batch through the binary tier
// (MsgSparsePoints) and returns the server's accepted count. For
// mostly-zero high-dimensional points this moves a small fraction of
// the dense frame's bytes and keeps the engine on its sparse fast path.
func (c *Client) InsertSparseBatch(ctx context.Context, sps []vec.Sparse, dim int) (int64, error) {
	frame, err := AppendSparsePointsFrame(nil, sps, dim)
	if err != nil {
		return 0, err
	}
	data, err := c.do(ctx, http.MethodPost, "/insert-batch", ContentTypeFrame, frame)
	if err != nil {
		return 0, err
	}
	typ, payload, err := DecodeFrame(data)
	if err != nil || typ != MsgAck {
		return 0, fmt.Errorf("server: bad ack frame (type %d): %w", typ, err)
	}
	return DecodeAck(payload)
}

// Classify classifies one point through the JSON tier.
func (c *Client) Classify(ctx context.Context, p vec.Vector) (int, float64, error) {
	body, err := json.Marshal(jsonPoints{Point: p})
	if err != nil {
		return 0, 0, err
	}
	data, err := c.do(ctx, http.MethodPost, "/classify", "application/json", body)
	if err != nil {
		return 0, 0, err
	}
	var res jsonClassifyResult
	if err := json.Unmarshal(data, &res); err != nil {
		return 0, 0, err
	}
	if len(res.Clusters) != 1 || len(res.Distances) != 1 {
		return 0, 0, fmt.Errorf("server: %d results for 1 point", len(res.Clusters))
	}
	return res.Clusters[0], res.Distances[0], nil
}

// ClassifyBatch classifies a batch through the binary tier.
func (c *Client) ClassifyBatch(ctx context.Context, pts []vec.Vector, dim int) ([]int, []float64, error) {
	frame, err := AppendPointsFrame(nil, pts, dim)
	if err != nil {
		return nil, nil, err
	}
	data, err := c.do(ctx, http.MethodPost, "/classify-batch", ContentTypeFrame, frame)
	if err != nil {
		return nil, nil, err
	}
	typ, payload, err := DecodeFrame(data)
	if err != nil || typ != MsgClassifyResult {
		return nil, nil, fmt.Errorf("server: bad classify frame (type %d): %w", typ, err)
	}
	idx, dist, err := DecodeClassifyResultInto(payload, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(idx) != len(pts) {
		return nil, nil, fmt.Errorf("server: %d results for %d points", len(idx), len(pts))
	}
	return idx, dist, nil
}

// ClassifySparseBatch classifies a sparse batch through the binary tier.
// Results are identical to ClassifyBatch over the densified points
// (which is how the server computes them).
func (c *Client) ClassifySparseBatch(ctx context.Context, sps []vec.Sparse, dim int) ([]int, []float64, error) {
	frame, err := AppendSparsePointsFrame(nil, sps, dim)
	if err != nil {
		return nil, nil, err
	}
	data, err := c.do(ctx, http.MethodPost, "/classify-batch", ContentTypeFrame, frame)
	if err != nil {
		return nil, nil, err
	}
	typ, payload, err := DecodeFrame(data)
	if err != nil || typ != MsgClassifyResult {
		return nil, nil, fmt.Errorf("server: bad classify frame (type %d): %w", typ, err)
	}
	idx, dist, err := DecodeClassifyResultInto(payload, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(idx) != len(sps) {
		return nil, nil, fmt.Errorf("server: %d results for %d points", len(idx), len(sps))
	}
	return idx, dist, nil
}

// Summaries pulls the daemon's per-shard CF summaries over the binary
// tier, bit-exact.
func (c *Client) Summaries(ctx context.Context) (cf.CoreKind, int, []core.Summary, error) {
	data, err := c.do(ctx, http.MethodGet, "/summary", "", nil)
	if err != nil {
		return 0, 0, nil, err
	}
	typ, payload, err := DecodeFrame(data)
	if err != nil || typ != MsgSummaries {
		return 0, 0, nil, fmt.Errorf("server: bad summaries frame (type %d): %w", typ, err)
	}
	return DecodeSummaries(payload)
}

// Flush asks the daemon to fold all accepted points into its serving
// snapshot.
func (c *Client) Flush(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodPost, "/flush", "", nil)
	return err
}

// Stats fetches the daemon's engine and serving gauges.
func (c *Client) Stats(ctx context.Context) (StatsPayload, error) {
	var st StatsPayload
	data, err := c.do(ctx, http.MethodGet, "/stats", "", nil)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// Snapshot fetches the daemon's snapshot metadata (with centroids).
func (c *Client) Snapshot(ctx context.Context) (snapshotMeta, error) {
	var meta snapshotMeta
	data, err := c.do(ctx, http.MethodGet, "/snapshot", "", nil)
	if err != nil {
		return meta, err
	}
	err = json.Unmarshal(data, &meta)
	return meta, err
}

// Healthz probes liveness: nil means serving, an error means down,
// draining or degraded by a backend failure.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", "", nil)
	return err
}
