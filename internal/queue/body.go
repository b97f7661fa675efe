package queue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonline"
)

// maxBody caps a request or reply body: 16 MiB is far beyond any lease,
// result or manifest and keeps a hostile peer from streaming gigabytes
// into memory.
const maxBody = 16 << 20

// maxPooled is the largest buffer readBody sizes up front and the largest
// a read or encoded body puts back into its pool. Leases, renewals and
// results are a few KiB; a rare large body (a manifest) grows its own
// buffer and is left to the collector.
const maxPooled = 64 << 10

// A body is a pooled buffer and the reader that caps what it takes in.
type body struct {
	buf bytes.Buffer
	lim io.LimitedReader
}

// bodies holds the buffers readBody reads into, so a steady stream of
// posts reuses a few buffers instead of growing a fresh one for each.
var bodies = sync.Pool{New: func() any { return new(body) }}

var errBodyTooLarge = fmt.Errorf("queue: body larger than %d bytes", maxBody)

// readBody reads a body whole into a pooled buffer, which the caller
// hands back with free once done with its bytes. n is the body's
// Content-Length, negative when unknown: it sizes the buffer once, and a
// body announced or found to be larger than maxBody is refused.
func readBody(r io.Reader, n int64) (*body, error) {
	if n > maxBody {
		return nil, errBodyTooLarge
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
	if err != nil {
		b.free()
		return nil, err
	}
	return b, nil
}

func (b *body) free() {
	if b.buf.Cap() <= maxPooled+bytes.MinRead {
		bodies.Put(b)
	}
}

// readJSON reads a body whole (readBody) and unmarshals it into v. The
// body must be one JSON value; bytes after it other than white space are
// an error.
func readJSON(r io.Reader, n int64, v any) error {
	b, err := readBody(r, n)
	if err != nil {
		return err
	}
	err = json.Unmarshal(b.buf.Bytes(), v) // copies every string out of the buffer
	b.free()
	return err
}

// readResult reads a ResultRequest body like readJSON. A body in the
// layout json.Marshal writes is decoded without reflection
// (decodeResult); any other body goes to json.Unmarshal, which decides
// what it means and which errors. Only that fallback decodes into a value
// of its own, so req may stay on the caller's stack.
func readResult(r io.Reader, n int64, req *ResultRequest) error {
	b, err := readBody(r, n)
	if err != nil {
		return err
	}
	defer b.free()
	if decodeResult(b.buf.Bytes(), req) {
		return nil
	}
	v := new(ResultRequest)
	if err := json.Unmarshal(b.buf.Bytes(), v); err != nil {
		return err
	}
	*req = *v
	return nil
}

// decodeResult decodes data into req if it is a ResultRequest exactly as
// json.Marshal lays one out, and reports whether it was. What it accepts
// it decodes to the value json.Unmarshal would
// (FuzzResultRequestDecode); on false, req holds whatever it read.
func decodeResult(data []byte, req *ResultRequest) bool {
	d := jsonline.New(data)
	d.Open()
	d.Need("worker")
	req.Worker = d.Str()
	d.Need("name")
	req.Name = d.Str()
	d.Need("index")
	req.Index = d.Int()
	if d.Key("sum") {
		req.Sum = d.Str()
	}
	d.Need("result")
	d.Result(&req.Result)
	if d.Key("next") {
		req.Next = new(LeaseRequest)
		d.Open()
		d.Need("worker")
		req.Next.Worker = d.Str()
		if d.Key("name") {
			req.Next.Name = d.Str()
		}
		d.Close()
	}
	d.Close()
	return d.Done()
}

// decodeLease decodes a LeaseResponse reply, data, into l if it is laid
// out as json.NewEncoder(w).Encode writes one, and reports whether it
// was. What it accepts it decodes to the value json.Unmarshal would
// (FuzzResultRequestDecode); on false, l holds whatever it read.
func decodeLease(data []byte, l *LeaseResponse) bool {
	d := jsonline.New(bytes.TrimSuffix(data, []byte{'\n'}))
	d.Open()
	d.Need("status")
	l.Status = d.Str()
	if d.Key("name") {
		l.Name = d.Str()
	}
	if d.Key("index") {
		l.Index = d.Int()
	}
	if d.Key("sum") {
		l.Sum = d.Str()
	}
	if d.Key("ttl_ns") {
		l.TTL = time.Duration(d.Int64())
	}
	d.Close()
	return d.Done()
}

// An encoded is one JSON body, encoded into a pooled buffer by the
// encoder that lives with it: the bytes json.NewEncoder(w).Encode writes,
// json.Marshal's and a newline.
//
// A request body may go back to the pool (free) only once the transport
// is done with it, and net/http does not say when that is: it may still
// be writing the body after Do returned. It is done once the reply has
// been read to its end: before it hands over a reply without a body, or
// the end of one, the transport waits for the request's write to finish.
// So a Client frees a body only after an exchange that read the reply to
// its end, and leaves any other to the collector.
type encoded struct {
	buf bytes.Buffer
	enc *json.Encoder // writes into buf
}

var encodings = sync.Pool{New: func() any {
	e := new(encoded)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// encode encodes v into a pooled buffer.
func encode(v any) (*encoded, error) {
	e := encodings.Get().(*encoded)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		e.free()
		return nil, err
	}
	return e, nil
}

// free puts e back into the pool; nil holds nothing.
func (e *encoded) free() {
	if e != nil && e.buf.Cap() <= maxPooled {
		encodings.Put(e)
	}
}

// marshaled returns the bytes json.Marshal writes for the value: all but
// Encode's newline.
func (e *encoded) marshaled() []byte { return e.buf.Bytes()[:e.buf.Len()-1] }

// writeJSON answers v as JSON: json.NewEncoder(w).Encode's bytes,
// trailing newline included, encoded into a pooled buffer and sent with
// its Content-Length. A value json cannot encode is answered with an
// empty body.
func writeJSON(w http.ResponseWriter, v any) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	e, err := encode(v)
	if err != nil {
		return
	}
	h.Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.Write(e.buf.Bytes())
	e.free()
}
