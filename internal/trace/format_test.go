package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ts(sec int64, nsec int) time.Time { return time.Unix(sec, int64(nsec)).UTC() }

func TestWriteReadRoundTrip(t *testing.T) {
	records := []Record{
		{Time: ts(784900000, 0), Client: "u01@alpha", URL: "http://a.example.edu/", Size: 2048},
		{Time: ts(784900001, 500000000), Client: "u02", URL: "http://b.example.edu/x.gif", Size: 0},
		{Time: ts(784900002, 123456000), Client: "u01@alpha", URL: "http://a.example.edu/y.html", Size: 4096},
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
			Time:   time.Unix(int64(sec), int64(micro%1000000)*1000).UTC(),
			Client: "c" + itoa(int(client)),
			URL:    "http://h.example.edu/d" + itoa(int(urlSuffix)),
			Size:   int64(size),
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
		Time:   ts(784900000, 0),
		Client: "user3@beaker",
		URL:    "http://cs-www.bu.edu/",
		Size:   2009,
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
		{Time: ts(30, 0), URL: "c"},
		{Time: ts(10, 0), URL: "a"},
		{Time: ts(20, 0), URL: "b"},
		{Time: ts(10, 0), URL: "a2"}, // equal time: stable order preserved
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
		{Time: ts(100, 0), Client: "u1", URL: "a", Size: 10},
		{Time: ts(200, 0), Client: "u2", URL: "a", Size: 10},
		{Time: ts(300, 0), Client: "u1", URL: "b", Size: 0},
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
