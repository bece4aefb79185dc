package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func ts(sec int64, nsec int) time.Time { return time.Unix(sec, int64(nsec)).UTC() }

func TestWriteReadRoundTrip(t *testing.T) {
	records := []Record{
		{UnixNano: ts(784900000, 0).UnixNano(), Client: MakeClient("u01@alpha"), URL: "http://a.example.edu/", Size: 2048},
		{UnixNano: ts(784900001, 500000000).UnixNano(), Client: MakeClient("u02"), URL: "http://b.example.edu/x.gif", Size: 0},
		{UnixNano: ts(784900002, 123456000).UnixNano(), Client: MakeClient("u01@alpha"), URL: "http://a.example.edu/y.html", Size: 4096},
	}
	var buf bytes.Buffer
	if err := Write(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, records)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n784900000 u1 http://x/ 10\n   \n# more\n784900001 u2 http://y/ 20\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name string
		line string
	}{
		{"too few fields", "784900000 u1 http://x/"},
		{"too many fields", "784900000 u1 http://x/ 10 extra"},
		{"bad timestamp", "notatime u1 http://x/ 10"},
		{"bad size", "784900000 u1 http://x/ big"},
		{"negative size", "784900000 u1 http://x/ -5"},
		{"bad fraction", "784900000. u1 http://x/ 10"},
		{"fraction too long", "784900000.1234567890 u1 http://x/ 10"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.line + "\n")); err == nil {
				t.Fatalf("Read(%q) succeeded", tt.line)
			}
		})
	}
}

func TestParseTimestamp(t *testing.T) {
	tests := []struct {
		in   string
		want time.Time
	}{
		{"784900000", ts(784900000, 0)},
		{"784900000.5", ts(784900000, 500000000)},
		{"784900000.000001", ts(784900000, 1000)},
		{"784900000.123456789", ts(784900000, 123456789)},
	}
	for _, tt := range tests {
		got, err := ParseTimestamp(tt.in)
		if err != nil {
			t.Fatalf("ParseTimestamp(%q): %v", tt.in, err)
		}
		if !got.Equal(tt.want) {
			t.Fatalf("ParseTimestamp(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestQuickFormatRoundTrip(t *testing.T) {
	f := func(sec uint32, micro uint32, client, urlSuffix uint16, size uint32) bool {
		rec := Record{
			UnixNano: time.Unix(int64(sec), int64(micro%1000000)*1000).UnixNano(),
			Client:   MakeClient("c" + itoa(int(client))),
			URL:      "http://h.example.edu/d" + itoa(int(urlSuffix)),
			Size:     int64(size),
		}
		var buf bytes.Buffer
		if err := Write(&buf, []Record{rec}); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		return reflect.DeepEqual(got[0], rec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestReadBU(t *testing.T) {
	in := strings.Join([]string{
		"# BU condensed log",
		"beaker 784900000 user3 http://cs-www.bu.edu/ 2009 0.518815",
		"okeefe 784900010.25 user7 http://cs-www.bu.edu/lib/pics/bu-logo.gif 1804 0.31",
		"beaker 784900020 user3 http://cs-www.bu.edu/courses/ 0 0.1",
		"corrupt line without enough",
		"beaker notatime user3 http://x/ 10 0.1",
		"beaker 784900030 user3 http://y/ -4 0.1",
	}, "\n")
	records, skipped, err := ReadBU(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 3 {
		t.Fatalf("skipped = %d, want 3", skipped)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d, want 3", len(records))
	}
	want := Record{
		UnixNano: ts(784900000, 0).UnixNano(),
		Client:   MakeClient("user3@beaker"),
		URL:      "http://cs-www.bu.edu/",
		Size:     2009,
	}
	if records[0] != want {
		t.Fatalf("record[0] = %+v, want %+v", records[0], want)
	}
	if records[2].Size != 0 {
		t.Fatalf("zero-size record mangled: %+v", records[2])
	}
}

func TestCleanZeroSizes(t *testing.T) {
	in := []Record{{URL: "a", Size: 0}, {URL: "b", Size: 100}}
	out := CleanZeroSizes(in, 4096)
	if out[0].Size != 4096 || out[1].Size != 100 {
		t.Fatalf("CleanZeroSizes = %+v", out)
	}
	// In place: the result is the input, not a second copy of the trace.
	if &out[0] != &in[0] || in[0].Size != 4096 {
		t.Fatalf("cleaned a copy: in = %+v", in)
	}
}

func TestSortAndSorted(t *testing.T) {
	recs := []Record{
		{UnixNano: ts(30, 0).UnixNano(), URL: "c"},
		{UnixNano: ts(10, 0).UnixNano(), URL: "a"},
		{UnixNano: ts(20, 0).UnixNano(), URL: "b"},
		{UnixNano: ts(10, 0).UnixNano(), URL: "a2"}, // equal time: stable order preserved
	}
	if Sorted(recs) {
		t.Fatal("unsorted reported as sorted")
	}
	SortByTime(recs)
	if !Sorted(recs) {
		t.Fatal("sorted reported as unsorted")
	}
	if recs[0].URL != "a" || recs[1].URL != "a2" {
		t.Fatalf("stability violated: %v, %v", recs[0].URL, recs[1].URL)
	}
}

func TestComputeStats(t *testing.T) {
	recs := []Record{
		{UnixNano: ts(100, 0).UnixNano(), Client: MakeClient("u1"), URL: "a", Size: 10},
		{UnixNano: ts(200, 0).UnixNano(), Client: MakeClient("u2"), URL: "a", Size: 10},
		{UnixNano: ts(300, 0).UnixNano(), Client: MakeClient("u1"), URL: "b", Size: 0},
	}
	s := ComputeStats(recs)
	if s.Requests != 3 || s.UniqueDocs != 2 || s.UniqueClients != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalBytes != 20 || s.UniqueBytes != 10 || s.ZeroSize != 1 {
		t.Fatalf("byte stats = %+v", s)
	}
	if s.Span() != 200*time.Second {
		t.Fatalf("Span = %v", s.Span())
	}
	if s.MeanSize() != 20.0/3 {
		t.Fatalf("MeanSize = %v", s.MeanSize())
	}
	if ComputeStats(nil).Span() != 0 {
		t.Fatal("empty stats span")
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestReadersInternNames: every reader hands records that name one client
// the same handle, and records that name one document the same backing
// string, so a parsed trace holds each name once and no record pins the
// input line it was cut from.
func TestReadersInternNames(t *testing.T) {
	read := map[string]func() ([]Record, error){
		"canonical": func() ([]Record, error) {
			return Read(strings.NewReader("1 u1 http://a/x 10\n2 u2 http://a/y 10\n3 u1 http://a/x 10\n"))
		},
		"squid": func() ([]Record, error) {
			recs, _, err := ReadSquid(strings.NewReader(
				"1.000 5 u1 TCP_MISS/200 10 GET http://a/x - DIRECT/a -\n" +
					"2.000 5 u2 TCP_MISS/200 10 GET http://a/y - DIRECT/a -\n" +
					"3.000 5 u1 TCP_MISS/200 10 GET http://a/x - DIRECT/a -\n"))
			return recs, err
		},
		"bu": func() ([]Record, error) {
			recs, _, err := ReadBU(strings.NewReader("m1 1 u1 http://a/x 10\nm1 2 u2 http://a/y 10\nm1 3 u1 http://a/x 10\n"))
			return recs, err
		},
	}
	for name, fn := range read {
		recs, err := fn()
		if err != nil || len(recs) != 3 {
			t.Fatalf("%s: %d records, err %v", name, len(recs), err)
		}
		first, last := recs[0], recs[2]
		if first.Client.String() != last.Client.String() || first.URL != last.URL {
			t.Fatalf("%s: records 0 and 2 name %q %q and %q %q", name, first.Client, first.URL, last.Client, last.URL)
		}
		if first.Client != last.Client || first.Client == recs[1].Client {
			t.Errorf("%s: clients %q, %q, %q are not one handle per name", name, first.Client, recs[1].Client, last.Client)
		}
		if unsafe.StringData(first.URL) != unsafe.StringData(last.URL) {
			t.Errorf("%s: URL %q is two strings", name, first.URL)
		}
	}
}
