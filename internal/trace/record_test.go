package trace

import (
	"io"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRecordLayout pins a record at 48 bytes. sim_bu's set-up holds two
// generated BU traces live at once (575,775 records each), so every byte
// of a record counts twice in the bench's peak RSS. A time.Time field
// would make it 64: 24 bytes, and the same *Location in every record.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 48", got)
	}
}

// TestRecordTimeRoundTrip: a parsed record's Time() is the parser's time,
// in UTC; writing and re-reading it keeps UnixNano exactly; and a time
// finer than the format's resolution comes back truncated to it.
func TestRecordTimeRoundTrip(t *testing.T) {
	readSquid := func(r io.Reader) ([]Record, error) {
		records, _, err := ReadSquid(r)
		return records, err
	}
	for _, tc := range []struct {
		name, stamp, line string
		write             func(io.Writer, []Record) error
		read              func(io.Reader) ([]Record, error)
		unit              int64 // the format's resolution in nanoseconds
	}{
		{"canonical", "784900000.123456", "784900000.123456 u1 http://x.example.edu/ 10", Write, Read, 1e3},
		{"squid", "784900000.123", "784900000.123 95 10.0.0.7 TCP_MISS/200 10 GET http://x.example.edu/ - DIRECT/1.2.3.4 text/html", WriteSquid, readSquid, 1e6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parsed, err := tc.read(strings.NewReader(tc.line + "\n"))
			if err != nil || len(parsed) != 1 {
				t.Fatalf("read %q: %d records, %v", tc.line, len(parsed), err)
			}
			rec := parsed[0]
			want, err := ParseTimestamp(tc.stamp)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Time(); got.Location() != time.UTC || !got.Equal(want) {
				t.Fatalf("Time() = %v (%v), want %v in UTC", got, got.Location(), want)
			}

			finer := rec
			finer.UnixNano += tc.unit - 1
			var buf strings.Builder
			if err := tc.write(&buf, []Record{rec, finer}); err != nil {
				t.Fatal(err)
			}
			got, err := tc.read(strings.NewReader(buf.String()))
			if err != nil || len(got) != 2 {
				t.Fatalf("re-read:\n%s: %d records, %v", buf.String(), len(got), err)
			}
			for i, g := range got {
				if g != rec {
					t.Errorf("record %d after the round trip = %+v, want %+v", i, g, rec)
				}
			}
		})
	}
}
