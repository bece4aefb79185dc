package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadSquid parses Squid's native access.log format, the lingua franca of
// proxy traces since the era the paper studies — so modern or archived
// Squid logs can drive the simulator directly. Each line is:
//
//	<unix-ts.millis> <elapsed-ms> <client> <code>/<status> <bytes> \
//	    <method> <url> <ident> <hierarchy>/<peer> <type>
//
// Only GET requests with a 2xx/3xx status are reference-stream material;
// everything else (CONNECT tunnels, errors, purges) is skipped and counted.
// The logged byte count includes response headers, which is the closest
// available stand-in for document size — the same approximation proxy
// studies make.
func ReadSquid(r io.Reader) (records []Record, skipped int, err error) {
	ns := names{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, ok := parseSquidLine(line, ns)
		if !ok {
			skipped++
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("trace: read squid log: %w", err)
	}
	return records, skipped, nil
}

func parseSquidLine(line string, ns names) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 7 {
		return Record{}, false
	}
	t, err := ParseTimestamp(fields[0])
	if err != nil {
		return Record{}, false
	}
	client := fields[2]
	codeStatus := fields[3]
	size, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil || size < 0 {
		return Record{}, false
	}
	method := fields[5]
	url := fields[6]

	if method != "GET" {
		return Record{}, false
	}
	_, status, found := strings.Cut(codeStatus, "/")
	if !found {
		return Record{}, false
	}
	st, err := strconv.Atoi(status)
	if err != nil || st < 200 || st >= 400 {
		return Record{}, false
	}
	if !strings.Contains(url, "://") {
		return Record{}, false
	}
	return Record{UnixNano: t.UnixNano(), Client: ns.intern(client), URL: ns.intern(url), Size: size}, true
}

// WriteSquid serialises records in Squid's native access.log format, so a
// synthetic workload can drive any tool that consumes Squid logs (including
// this repository's own ReadSquid). Outcome fields that a trace does not
// carry are written as TCP_MISS/200 direct-to-origin GETs.
func WriteSquid(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		t := r.Time()
		_, err := fmt.Fprintf(bw, "%d.%03d %6d %s TCP_MISS/200 %d GET %s - DIRECT/origin -\n",
			t.Unix(), t.Nanosecond()/1e6, 0, r.Client, r.Size, r.URL)
		if err != nil {
			return fmt.Errorf("trace: write squid: %w", err)
		}
	}
	return bw.Flush()
}
