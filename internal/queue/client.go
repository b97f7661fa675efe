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

// statusError is a non-2xx reply; its code tells postRetry whether
// another attempt can succeed.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// do performs one request with in (when non-nil) JSON-encoded as its
// body and decodes the JSON response into out (when non-nil and the
// reply is not 204 No Content).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body *encoded
	if in != nil {
		var err error
		if body, err = encode(in); err != nil {
			return err
		}
	}
	err := c.exchange(ctx, method, path, body, out)
	if err == nil {
		body.free() // the reply was read to its end (see encoded)
	}
	return err
}

// exchange is do with the request body already encoded (nil for none).
// A reply other than 204 No Content is read whole into a pooled buffer
// sized from its Content-Length (readBody), whether or not out takes it,
// so when exchange returns nil the reply was read to its end. A lease
// in the layout the coordinator writes is decoded without reflection
// (decodeLease); any other reply goes to json.Unmarshal.
func (c *Client) exchange(ctx context.Context, method, path string, body *encoded, out any) error {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	b, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return err
	}
	defer b.free()
	if out == nil {
		return nil
	}
	if l, ok := out.(*LeaseResponse); ok {
		if decodeLease(b.buf.Bytes(), l) {
			return nil
		}
		*l = LeaseResponse{} // what the declined decoder filled in
	}
	return json.Unmarshal(b.buf.Bytes(), out) // copies every string out of the buffer
}

// send performs one request with body's bytes, json.Marshal's encoding
// of the value, sent with their Content-Length (nil for no body), and
// returns the 2xx reply, whose body the caller closes. Any other status
// is a *statusError; a 404 maps to ErrUnknownManifest so pollers can
// tell "not planned yet" from transport failures.
func (c *Client) send(ctx context.Context, method, path string, body *encoded) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body.marshaled()) // sets the request's Content-Length
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		msg = bytes.TrimSpace(msg)
		switch resp.StatusCode {
		case http.StatusUnauthorized:
			err = fmt.Errorf("%w (%s %s: %s)", ErrUnauthorized, method, path, msg)
		case http.StatusNotFound:
			err = fmt.Errorf("%w (%s %s: %s)", ErrUnknownManifest, method, path, msg)
		default:
			err = fmt.Errorf("queue: %s %s: %s: %s", method, path, resp.Status, msg)
		}
		return nil, &statusError{resp.StatusCode, err}
	}
	return resp, nil
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

// Lease asks the coordinator for one point to compute.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/lease", &req, &resp)
	return resp, err
}

// Renew extends a lease this worker holds (Coordinator.Renew). A lost
// lease is a *statusError with code 409.
func (c *Client) Renew(ctx context.Context, req RenewRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/renew", &req, nil)
}

// PostResult posts one computed point back.
func (c *Client) PostResult(ctx context.Context, req ResultRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/result", &req, nil)
}

// PostResultRetry posts with retry: a computed point is too expensive to
// drop on a transient network error, so the post is retried with
// exponential backoff (attempts tries total) before giving up.
func (c *Client) PostResultRetry(ctx context.Context, req ResultRequest, attempts int) error {
	_, err := c.postRetry(ctx, &req, attempts)
	return err
}

// postRetry is PostResultRetry, returning the lease the reply carries
// (the zero LeaseResponse for a 204). The request is encoded once, and
// every try sends the same bytes. Only a transport error or a 5xx is
// retried: a 4xx (wrong credentials, an unknown manifest, a stale plan,
// an index out of range) would be refused again, and returns at once. A
// retry of a post the coordinator applied but whose reply was lost is
// acknowledged as a duplicate and handed the same lease.
func (c *Client) postRetry(ctx context.Context, req *ResultRequest, attempts int) (LeaseResponse, error) {
	if attempts <= 0 {
		attempts = 5
	}
	body, err := encode(req)
	if err != nil {
		return LeaseResponse{}, err
	}
	backoff := 100 * time.Millisecond
	for try := 0; try < attempts; try++ {
		if try > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return LeaseResponse{}, ctx.Err()
			}
			backoff *= 2
		}
		var next LeaseResponse
		if err = c.exchange(ctx, http.MethodPost, "/v1/result", body, &next); err == nil {
			body.free() // the reply was read to its end (see encoded)
			return next, nil
		}
		var se *statusError
		if ctx.Err() != nil || errors.As(err, &se) && se.code < 500 {
			return LeaseResponse{}, err
		}
	}
	return LeaseResponse{}, fmt.Errorf("queue: posting %s point %d failed after %d attempts: %w",
		req.Name, req.Index, attempts, err)
}

// Points fetches a manifest's completed results, keyed by point index.
// The reply, a stream as long as the manifest's results, is decoded one
// record at a time straight into the map: no copy of it is held whole.
func (c *Client) Points(ctx context.Context, name string) (map[int]nocsim.Result, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/points/"+name, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if tok, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("queue: points of %s: %w", name, err)
	} else if tok != json.Delim('[') {
		return nil, fmt.Errorf("queue: points of %s: reply is not an array", name)
	}
	have := map[int]nocsim.Result{}
	var rec manifest.Record
	for dec.More() {
		rec = manifest.Record{}
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("queue: points of %s: %w", name, err)
		}
		have[rec.Index] = rec.Result
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return nil, fmt.Errorf("queue: points of %s: %w", name, err)
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
