// Staging: how a body gets from a reader into an extent. The bytes pass
// once through a pooled stager into the running hash and, by WriteAt, into
// the segment at the offset reserved for them.
package blob

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"sync"
)

// stager is what one body transfer borrows: the running hash and the
// buffer the bytes pass through. stageBody and segment compaction take one
// and put it back before returning; Open takes one for the verifying
// reader, whose Close puts it back. Nothing else keeps a reference.
type stager struct {
	h   hash.Hash
	buf [32 << 10]byte
}

var stagers = sync.Pool{New: func() any { return &stager{h: sha256.New()} }}

// sum finishes the hash. The digest is written into the copy buffer, which
// is idle by then: a local array handed to the interface call would escape.
func (st *stager) sum() [32]byte { return [32]byte(st.h.Sum(st.buf[:0])) }

// stageBody reserves an extent at the active segment's tail and streams
// body into it with the lock released, hashing as it goes. The segment
// comes back pinned. A body shorter or longer than size is rejected; any
// failure unpins the segment and leaves the extent dead.
func (s *Store) stageBody(body io.Reader, size int64) (sum [32]byte, seg *segment, off int64, err error) {
	s.mu.Lock()
	if s.closed {
		err = ErrClosed
	} else if seg, off, err = s.reserveLocked(size); err == nil {
		seg.pins++
	}
	s.mu.Unlock()
	if err != nil {
		return sum, nil, 0, err
	}
	st := stagers.Get().(*stager)
	sum, err = st.copy(seg.f, off, body, size)
	stagers.Put(st)
	if err != nil {
		s.mu.Lock()
		s.unpinLocked(seg)
		s.mu.Unlock()
		return sum, nil, 0, err
	}
	return sum, seg, off, nil
}

// copy moves exactly size bytes from body through the stager's buffer into
// a fresh hash and f at off, then asks body for one byte more: it must
// report EOF. A short body is an io.ErrUnexpectedEOF.
func (st *stager) copy(f *os.File, off int64, body io.Reader, size int64) ([32]byte, error) {
	st.h.Reset()
	for n := int64(0); n < size; {
		p := st.buf[:min(int64(len(st.buf)), size-n)]
		k, err := io.ReadFull(body, p)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return [32]byte{}, fmt.Errorf("blob: body is %d bytes, want %d: %w", n+int64(k), size, io.ErrUnexpectedEOF)
		}
		if err == nil {
			st.h.Write(p)
			_, err = f.WriteAt(p, off+n)
		}
		if err != nil {
			return [32]byte{}, fmt.Errorf("blob: stage: %w", err)
		}
		n += int64(k)
	}
	if k, err := io.ReadFull(body, st.buf[:1]); k > 0 {
		return [32]byte{}, fmt.Errorf("blob: body is longer than %d bytes", size)
	} else if err != io.EOF {
		return [32]byte{}, fmt.Errorf("blob: stage: %w", err)
	}
	return st.sum(), nil
}
