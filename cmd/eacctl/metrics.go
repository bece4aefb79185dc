package main

import (
	"bufio"
	"strconv"
	"strings"
)

// sample is one parsed Prometheus text-exposition series point.
type sample struct {
	series string // "name{labels}" exactly as exposed
	name   string
	labels map[string]string
	value  float64
}

// parseMetrics reads the Prometheus 0.0.4 text format the admin surface
// serves: HELP/TYPE comments skipped, one "name{labels} value" or
// "name value" sample per line. Malformed lines are skipped — a report
// built from most of a scrape beats no report.
func parseMetrics(body []byte) []sample {
	var out []sample
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := sample{series: series, value: val, labels: map[string]string{}}
		if br := strings.IndexByte(series, '{'); br >= 0 {
			if !strings.HasSuffix(series, "}") {
				continue
			}
			s.name = series[:br]
			parseLabels(series[br+1:len(series)-1], s.labels)
		} else {
			s.name = series
		}
		out = append(out, s)
	}
	return out
}

// parseLabels decodes `k1="v1",k2="v2"` with \" \\ \n escapes.
func parseLabels(s string, into map[string]string) {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		into[key] = val.String()
		s = rest[i:]
		s = strings.TrimPrefix(s, `"`)
		s = strings.TrimPrefix(s, ",")
	}
}
