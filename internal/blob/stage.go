// Staging: how a body gets from a reader to its content address. The
// bytes pass once through a pooled stager into a tmp/admit-<n> file and
// the running hash; the file is then renamed to blobs/<hh>/<sha256>.
package blob

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// stager is what one body transfer borrows: the running hash and the
// buffer the bytes pass through. stageBody takes one and puts it back
// before returning; Open takes one for the verifying reader, whose Close
// puts it back. Nothing else keeps a reference.
type stager struct {
	h   hash.Hash
	buf [32 << 10]byte
}

var stagers = sync.Pool{New: func() any { return &stager{h: sha256.New()} }}

// sum finishes the hash. The digest is written into the copy buffer, which
// is idle by then: a local array handed to the interface call would escape.
func (st *stager) sum() [32]byte { return [32]byte(st.h.Sum(st.buf[:0])) }

// createStaged opens a fresh tmp/admit-<n> file. O_EXCL turns a name that
// is taken (a leftover recovery has yet to sweep) into a retry under the
// next number.
func (s *Store) createStaged() (*os.File, error) {
	for {
		var stack [192]byte
		name := append(append(stack[:0], s.dir...), sep+"tmp"+sep+"admit-"...)
		name = strconv.AppendUint(name, s.tmpSeq.Add(1), 10)
		f, err := os.OpenFile(string(name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// stageBody streams body into a temp file, hashing as it goes, and
// returns the sum and the staged path. A body shorter or longer than size
// is rejected, and no staged file outlives a failure.
func (s *Store) stageBody(body io.Reader, size int64) ([32]byte, string, error) {
	f, err := s.createStaged()
	if err != nil {
		return [32]byte{}, "", fmt.Errorf("blob: stage: %w", err)
	}
	st := stagers.Get().(*stager)
	st.h.Reset()
	sum, err := st.copy(f, body, size)
	stagers.Put(st)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("blob: stage: %w", cerr)
	}
	if err != nil {
		os.Remove(f.Name())
		return [32]byte{}, "", err
	}
	return sum, f.Name(), nil
}

// copy moves exactly size bytes from body through the stager's buffer into
// the hash and f, then asks body for one byte more: it must report EOF.
func (st *stager) copy(f *os.File, body io.Reader, size int64) ([32]byte, error) {
	for n := int64(0); n < size; {
		p := st.buf[:min(int64(len(st.buf)), size-n)]
		k, err := io.ReadFull(body, p)
		n += int64(k)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return [32]byte{}, fmt.Errorf("blob: body is %d bytes, want %d", n, size)
		}
		if err == nil {
			st.h.Write(p)
			_, err = f.Write(p)
		}
		if err != nil {
			return [32]byte{}, fmt.Errorf("blob: stage: %w", err)
		}
	}
	if k, err := io.ReadFull(body, st.buf[:1]); k > 0 {
		return [32]byte{}, fmt.Errorf("blob: body is longer than %d bytes", size)
	} else if err != io.EOF {
		return [32]byte{}, fmt.Errorf("blob: stage: %w", err)
	}
	return st.sum(), nil
}

// placeLocked renames a staged file to its content address. A fan-out
// directory is made the first time this store needs it; should it vanish
// afterwards, the rename's ENOENT has it made again and retries once.
func (s *Store) placeLocked(staged string, sum [32]byte) error {
	dst := blobPath(s.dir, sum)
	if s.fanout[sum[0]] {
		err := os.Rename(staged, dst)
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	s.fanout[sum[0]] = true
	return os.Rename(staged, dst)
}
