package queue

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/nocsim"
	"repro/nocsim/manifest"
)

// ErrUnknownManifest reports that the coordinator does not (yet) serve
// the requested manifest — possibly because it is still planning it.
var ErrUnknownManifest = errors.New("queue: coordinator does not serve this manifest")

// ErrUnauthorized reports that the coordinator rejected the request with
// 401: it runs with -auth-token and this client's token is missing or
// wrong. Credentials don't fix themselves — callers should fail fast
// rather than retry (Worker and WaitManifest do).
var ErrUnauthorized = errors.New("queue: coordinator rejected credentials (401 unauthorized)")

// Client talks to a coordinator's HTTP API.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://10.0.0.7:9090".
	Base string
	// Token, when non-empty, is attached to every request as
	// "Authorization: Bearer <token>" — the shared secret a coordinator
	// started with -auth-token demands.
	Token string
	// HTTP overrides the transport; nil uses a client with a 30-second
	// per-request timeout (every coordinator response is small and
	// immediate — leases are granted or refused, never held open).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// do performs one request and decodes the JSON response into out (when
// non-nil). A 404 maps to ErrUnknownManifest so pollers can tell "not
// planned yet" from transport failures.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w (%s %s: %s)", ErrUnauthorized, method, path, bytes.TrimSpace(msg))
	}
	if resp.StatusCode == http.StatusNotFound {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w (%s %s: %s)", ErrUnknownManifest, method, path, bytes.TrimSpace(msg))
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("queue: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Manifest fetches one manifest by name.
func (c *Client) Manifest(ctx context.Context, name string) (*manifest.Manifest, error) {
	var m manifest.Manifest
	if err := c.do(ctx, http.MethodGet, "/v1/manifest/"+name, nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// WaitManifest polls until the coordinator serves the named manifest —
// covering both a coordinator still binding its listener and one still
// planning (calibrating) the manifest — or the timeout elapses (<= 0
// means no bound beyond ctx). The timeout is what surfaces a wrong URL
// or a figure the coordinator was never asked to serve, instead of
// hanging forever; the returned error carries the last failure so a
// connection refusal reads differently from a 404.
func (c *Client) WaitManifest(ctx context.Context, name string, timeout time.Duration) (*manifest.Manifest, error) {
	const poll = 500 * time.Millisecond
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	for {
		m, err := c.Manifest(ctx, name)
		if err == nil {
			return m, nil
		}
		if errors.Is(err, ErrUnauthorized) {
			// Polling won't mint credentials; surface the 401 now.
			return nil, fmt.Errorf("queue: waiting for manifest %q: %w", name, err)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("queue: waiting for manifest %q: %w (last: %v)", name, ctx.Err(), err)
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return nil, fmt.Errorf("queue: waiting for manifest %q: %w (last: %v)", name, ctx.Err(), err)
		}
	}
}

// AddManifest posts a follow-on manifest to the coordinator
// (Coordinator.AddFollowOn): the adaptive client's way to append its
// refinement pass to a live plan. Idempotent for a byte-identical plan;
// a name collision under a different plan fingerprint is an error.
func (c *Client) AddManifest(ctx context.Context, m *manifest.Manifest) error {
	return c.do(ctx, http.MethodPost, "/v1/manifest", m, nil)
}

// Expect registers the promise of a follow-on manifest
// (Coordinator.Expect), keeping unscoped workers attached until it is
// posted or withdrawn.
func (c *Client) Expect(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodPost, "/v1/expect/"+name, nil, nil)
}

// Unexpect withdraws an Expect — the "no refinement after all" path.
func (c *Client) Unexpect(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/expect/"+name, nil, nil)
}

// Lease asks the coordinator for one point to compute.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/lease", req, &resp)
	return resp, err
}

// PostResult posts one computed point back.
func (c *Client) PostResult(ctx context.Context, req ResultRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/result", req, nil)
}

// PostResultRetry posts with retry: a computed point is too expensive to
// drop on a transient network error, so the post is retried with
// exponential backoff (attempts tries total) before giving up.
func (c *Client) PostResultRetry(ctx context.Context, req ResultRequest, attempts int) error {
	if attempts <= 0 {
		attempts = 5
	}
	backoff := 100 * time.Millisecond
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		if err = c.PostResult(ctx, req); err == nil {
			return nil
		}
		if ctx.Err() != nil || errors.Is(err, ErrUnauthorized) {
			return err
		}
	}
	return fmt.Errorf("queue: posting %s point %d failed after %d attempts: %w",
		req.Name, req.Index, attempts, err)
}

// Points fetches a manifest's completed results, keyed by point index.
func (c *Client) Points(ctx context.Context, name string) (map[int]nocsim.Result, error) {
	var recs []manifest.Record
	if err := c.do(ctx, http.MethodGet, "/v1/points/"+name, nil, &recs); err != nil {
		return nil, err
	}
	have := make(map[int]nocsim.Result, len(recs))
	for _, rec := range recs {
		have[rec.Index] = rec.Result
	}
	return have, nil
}

// Metrics fetches the coordinator's raw Prometheus /metrics text — the
// feed the results dashboard proxies so a browser needs no coordinator
// credentials of its own.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return nil, fmt.Errorf("%w (GET /metrics)", ErrUnauthorized)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("queue: GET /metrics: %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}
