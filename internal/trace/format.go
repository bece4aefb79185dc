package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The canonical trace format is one request per line:
//
//	<unix-seconds[.fraction]> <client> <url> <size-bytes>
//
// Lines starting with '#' and blank lines are ignored. It is the output of
// cmd/tracegen and the input of cmd/cachesim.

// Write serialises records in the canonical format.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		t := r.Time()
		sec, micro := t.Unix(), t.Nanosecond()/1000
		var err error
		if micro == 0 {
			_, err = fmt.Fprintf(bw, "%d %s %s %d\n", sec, r.Client, r.URL, r.Size)
		} else {
			_, err = fmt.Fprintf(bw, "%d.%06d %s %s %d\n", sec, micro, r.Client, r.URL, r.Size)
		}
		if err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	return bw.Flush()
}

// Read parses records in the canonical format.
func Read(r io.Reader) ([]Record, error) {
	var records []Record
	ns := names{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseCanonicalLine(line, ns)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return records, nil
}

// names interns the client and URL strings a reader parses: records that
// name one client or document share one string, and none keeps the rest
// of its input line alive.
type names map[string]string

func (ns names) intern(s string) string {
	if v, ok := ns[s]; ok {
		return v
	}
	s = strings.Clone(s)
	ns[s] = s
	return s
}

func parseCanonicalLine(line string, ns names) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Record{}, fmt.Errorf("expected 4 fields, got %d", len(fields))
	}
	t, err := ParseTimestamp(fields[0])
	if err != nil {
		return Record{}, err
	}
	size, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad size %q: %w", fields[3], err)
	}
	if size < 0 {
		return Record{}, fmt.Errorf("negative size %d", size)
	}
	return Record{UnixNano: t.UnixNano(), Client: ns.intern(fields[1]), URL: ns.intern(fields[2]), Size: size}, nil
}

// ParseTimestamp parses a unix timestamp with optional fractional seconds.
func ParseTimestamp(s string) (time.Time, error) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		sec, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return time.Time{}, fmt.Errorf("bad timestamp %q: %w", s, err)
		}
		return time.Unix(sec, 0).UTC(), nil
	}
	sec, err := strconv.ParseInt(s[:dot], 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad timestamp %q: %w", s, err)
	}
	frac := s[dot+1:]
	if frac == "" || len(frac) > 9 {
		return time.Time{}, fmt.Errorf("bad timestamp fraction %q", s)
	}
	nanos, err := strconv.ParseInt(frac+strings.Repeat("0", 9-len(frac)), 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad timestamp fraction %q: %w", s, err)
	}
	return time.Unix(sec, nanos).UTC(), nil
}
