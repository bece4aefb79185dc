package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadBU parses Boston University client logs (Cunha, Bestavros & Crovella,
// "Characteristics of WWW Client-based Traces", 1995) — the trace family
// the paper's evaluation uses. Each line of the condensed BU log is:
//
//	<machine> <timestamp[.fraction]> <user> <url> <size-bytes> [<fetch-seconds>]
//
// The client identity is "<user>@<machine>", so a user keeps hitting the
// same proxy when the simulator routes clients by hash, just as a real
// browser is configured against one proxy. Records with a missing or zero
// size are kept with Size 0; apply CleanZeroSizes to substitute the 4KB
// average size the paper uses.
//
// Lines that do not parse are skipped and counted; the count is returned so
// callers can report log quality without failing on the odd corrupt line,
// which real 1994-era logs contain.
func ReadBU(r io.Reader) (records []Record, skipped int, err error) {
	ns := names{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, ok := parseBULine(line, ns)
		if !ok {
			skipped++
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("trace: read bu log: %w", err)
	}
	return records, skipped, nil
}

func parseBULine(line string, ns names) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 5 {
		return Record{}, false
	}
	machine := fields[0]
	t, err := ParseTimestamp(fields[1])
	if err != nil {
		return Record{}, false
	}
	user := fields[2]
	url := fields[3]
	size, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil || size < 0 {
		return Record{}, false
	}
	return Record{UnixNano: t.UnixNano(), Client: ns.intern(user + "@" + machine), URL: ns.intern(url), Size: size}, true
}
