// Package bodybuf reads and encodes HTTP bodies through pooled buffers.
// Both ends of the wire decode and encode small JSON bodies at a high
// rate — the daemon a job per POST, the client a reply per call — and
// handling each in a fresh doubling buffer (io.ReadAll, json.Decoder)
// was most of their bytes allocated per job.
package bodybuf

import (
	"bytes"
	"io"
	"net/http"
	"sync"
)

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooled bounds what is kept or grown up front: a buffer that one
// large body stretched past it is dropped instead of pinned in the
// pool, and a declared length above it (lengths are the peer's claim)
// is left to grow as the bytes actually arrive.
const maxPooled = 1 << 20

// Read reads r to EOF into a pooled buffer — sized once up front when
// the body's length is known (size > 0), not by doubling — and hands
// the bytes to use. They are valid only until use returns. A body
// longer than limit (limit > 0) is refused with an
// *http.MaxBytesError once limit+1 bytes have arrived, without a
// wrapper around r; use is then not called. Read's error is r's, the
// limit's or use's.
func Read(r io.Reader, size, limit int64, use func(body []byte) error) error {
	buf := pool.Get().(*bytes.Buffer)
	defer put(buf)
	if size > 0 && size <= maxPooled {
		// MinRead spare bytes, as ReadFrom keeps, to observe EOF.
		buf.Grow(int(size) + bytes.MinRead)
	}
	for {
		if buf.Available() < bytes.MinRead {
			buf.Grow(bytes.MinRead)
		}
		free := buf.AvailableBuffer()[:buf.Available()]
		if room := limit + 1 - int64(buf.Len()); limit > 0 && room < int64(len(free)) {
			free = free[:room]
		}
		n, err := r.Read(free)
		buf.Write(free[:n]) // in place: free is buf's own spare capacity
		if limit > 0 && int64(buf.Len()) > limit {
			return &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return use(buf.Bytes())
		}
		if err != nil {
			return err
		}
	}
}

// Encode has encode append a body to a pooled buffer and hands the
// bytes to use. They are valid only until use returns. The error is
// encode's or use's; use is not called when encode fails.
func Encode(encode func(b []byte) ([]byte, error), use func(body []byte) error) error {
	buf := pool.Get().(*bytes.Buffer)
	defer put(buf)
	body, err := encode(buf.AvailableBuffer())
	if err != nil {
		return err
	}
	if len(body) > buf.Cap() {
		// Keep the capacity the body needed for the next one.
		buf.Grow(len(body))
	}
	return use(body)
}

func put(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooled {
		buf.Reset()
		pool.Put(buf)
	}
}
