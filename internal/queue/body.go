package queue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// maxBody caps a request or reply body: 16 MiB is far beyond any lease,
// result or manifest and keeps a hostile peer from streaming gigabytes
// into memory.
const maxBody = 16 << 20

// maxPooled is the largest buffer readJSON sizes up front and puts back
// into bodies. Leases, renewals and results are a few KiB; a rare large
// body (a manifest) grows its own buffer and is left to the collector.
const maxPooled = 64 << 10

// A body is a pooled buffer and the reader that caps what it takes in.
type body struct {
	buf bytes.Buffer
	lim io.LimitedReader
}

// bodies holds the buffers readJSON reads into, so a steady stream of
// posts reuses a few buffers instead of growing a fresh one for each.
var bodies = sync.Pool{New: func() any { return new(body) }}

var errBodyTooLarge = fmt.Errorf("queue: body larger than %d bytes", maxBody)

// readJSON reads a body whole into a pooled buffer and unmarshals it into
// v. n is the body's Content-Length, negative when unknown: it sizes the
// buffer once, and a body announced or found to be larger than maxBody is
// refused. The body must be one JSON value; bytes after it other than
// white space are an error.
func readJSON(r io.Reader, n int64, v any) error {
	if n > maxBody {
		return errBodyTooLarge
	}
	b := bodies.Get().(*body)
	b.buf.Reset()
	b.buf.Grow(int(min(max(n, 0), maxPooled)) + bytes.MinRead) // MinRead: ReadFrom's room for the read that sees EOF
	b.lim = io.LimitedReader{R: r, N: maxBody + 1}
	_, err := b.buf.ReadFrom(&b.lim)
	b.lim.R = nil
	if err == nil && b.buf.Len() > maxBody {
		err = errBodyTooLarge
	}
	if err == nil {
		err = json.Unmarshal(b.buf.Bytes(), v) // copies every string out of the buffer
	}
	if b.buf.Cap() <= maxPooled+bytes.MinRead {
		bodies.Put(b)
	}
	return err
}
