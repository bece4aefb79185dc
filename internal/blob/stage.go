// Staging: how a body gets from a reader into an extent. The bytes pass
// once through a pooled stager's buffer into the running CRC32C and, by
// WriteAt, into the segment at the offset reserved for them.
package blob

import (
	"fmt"
	"io"
	"os"
	"sync"

	"eacache/internal/frame"
)

// stager is the buffer one body transfer borrows. stageBody, segment
// compaction and Verify take one and put it back before returning; nothing
// else keeps a reference.
type stager struct {
	buf [32 << 10]byte
}

var stagers = sync.Pool{New: func() any { return new(stager) }}

// stageBody reserves an extent at the active segment's tail and streams
// body into it with the lock released, checksumming as it goes. The
// segment comes back pinned. A body shorter or longer than size is
// rejected; any failure unpins the segment and leaves the extent dead.
func (s *Store) stageBody(body io.Reader, size int64) (crc uint32, seg *segment, off int64, err error) {
	s.mu.Lock()
	if s.closed {
		err = ErrClosed
	} else if seg, off, err = s.reserveLocked(size); err == nil {
		seg.pins++
	}
	s.mu.Unlock()
	if err != nil {
		return 0, nil, 0, err
	}
	st := stagers.Get().(*stager)
	crc, err = st.copy(seg.f, off, body, size)
	stagers.Put(st)
	if err != nil {
		s.mu.Lock()
		s.unpinLocked(seg)
		s.mu.Unlock()
		return 0, nil, 0, err
	}
	return crc, seg, off, nil
}

// copy moves exactly size bytes from body through the stager's buffer into
// f at off, returning their CRC32C, then asks body for one byte more: it
// must report EOF. A short body is an io.ErrUnexpectedEOF.
func (st *stager) copy(f *os.File, off int64, body io.Reader, size int64) (uint32, error) {
	var crc uint32
	for n := int64(0); n < size; {
		p := st.buf[:min(int64(len(st.buf)), size-n)]
		k, err := io.ReadFull(body, p)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("blob: body is %d bytes, want %d: %w", n+int64(k), size, io.ErrUnexpectedEOF)
		}
		if err == nil {
			crc = frame.Update(crc, p)
			_, err = f.WriteAt(p, off+n)
		}
		if err != nil {
			return 0, fmt.Errorf("blob: stage: %w", err)
		}
		n += int64(k)
	}
	if k, err := io.ReadFull(body, st.buf[:1]); k > 0 {
		return 0, fmt.Errorf("blob: body is longer than %d bytes", size)
	} else if err != io.EOF {
		return 0, fmt.Errorf("blob: stage: %w", err)
	}
	return crc, nil
}
