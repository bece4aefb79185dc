package trace

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRecordLayout pins a record at 40 bytes on a 64-bit platform: the
// time and the size as int64s, the URL as a string and the client as one
// interned handle. sim_bu's set-up holds two generated BU traces live at
// once (575,775 records each), so every byte of a record counts twice in
// the bench's peak RSS. A time.Time field would add 16 bytes, a client
// string one word.
func TestRecordLayout(t *testing.T) {
	const word = strconv.IntSize / 8
	if got, want := unsafe.Sizeof(Record{}), uintptr(8+word+2*word+8); got != want {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want %d", got, want)
	}
}

// TestZeroClientIsTheEmptyName: the zero Client is the client called "",
// and a record that carries it writes and prints exactly as one whose
// client is the empty string.
func TestZeroClientIsTheEmptyName(t *testing.T) {
	var zero Client
	if zero.String() != "" || MakeClient("") != zero || MakeClient("u1") == zero {
		t.Fatalf("zero Client %q, MakeClient(\"\") %q, MakeClient(\"u1\") %q", zero, MakeClient(""), MakeClient("u1"))
	}
	if got := fmt.Sprintf("%q %s %v", zero, zero, zero); got != `""  ` {
		t.Errorf("the zero Client prints as %q, want the empty name's %q", got, `""  `)
	}
	rec := Record{UnixNano: 784900000e9, URL: "http://x.example.edu/", Size: 10}
	for _, tc := range []struct {
		name  string
		write func(io.Writer, []Record) error
		want  string
	}{
		{"canonical", Write, "784900000  http://x.example.edu/ 10\n"},
		{"squid", WriteSquid, "784900000.000      0  TCP_MISS/200 10 GET http://x.example.edu/ - DIRECT/origin -\n"},
	} {
		var buf strings.Builder
		if err := tc.write(&buf, []Record{rec}); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("%s: a zero-Client record writes %q, want %q", tc.name, buf.String(), tc.want)
		}
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

// TestScansSeeEveryPiece: CleanZeroSizes and Sorted split a long trace into
// one piece per core, and an inversion or a zero size next to any cut
// between pieces is still found, at every core count.
func TestScansSeeEveryPiece(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n := 4*minPieceRecords + 3
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		for _, cut := range []int{1, n / 4, n / 3, n / 2, 2 * n / 3, 3 * n / 4, n - 1} {
			for _, at := range []int{cut - 1, cut, cut + 1} {
				if at < 1 || at >= n {
					continue
				}
				records := make([]Record, n)
				for i := range records {
					records[i] = Record{UnixNano: int64(i), Size: 1}
				}
				if !Sorted(records) {
					t.Fatalf("GOMAXPROCS %d: a sorted trace reads as unsorted", procs)
				}
				records[at].UnixNano, records[at].Size = records[at-1].UnixNano-1, 0
				if Sorted(records) {
					t.Errorf("GOMAXPROCS %d: the inversion at %d of %d was missed", procs, at, n)
				}
				if CleanZeroSizes(records, 7); records[at].Size != 7 {
					t.Errorf("GOMAXPROCS %d: the zero size at %d of %d was not cleaned", procs, at, n)
				}
			}
		}
	}
}
