package output

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"testing"
	"time"
)

// referenceCSV renders recs with encoding/csv, the format CSVWriter must
// reproduce byte for byte.
func referenceCSV(t testing.TB, recs ...Record) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	digit := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	if err := cw.Write(csvHeader); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		row := []string{
			r.Saddr,
			strconv.Itoa(int(r.Sport)),
			r.Classification,
			digit(r.Success),
			digit(r.Repeat),
			digit(r.InCooldown),
			strconv.Itoa(int(r.TTL)),
			strconv.FormatFloat(r.Timestamp, 'f', 6, 64),
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzCSVWriterMatchesEncodingCSV(f *testing.F) {
	seeds := []struct {
		saddr, class string
		ts           float64
	}{
		{"1.2.3.4", "synack", 1.5},
		{"", "", 0},
		{"a,b", `say "hi"`, -2.25},
		{"line\nbreak", "cr\rhere", 1e12},
		{" leading", "\tspace", math.Inf(1)},
		{`\.`, `\.x`, math.NaN()},
		{" nbsp", "　ideographic", 1e-9},
		{"résumé", "ünïcödé", 3},
		{"\xff\xfe", "\"", -0.0},
		{"\r\n", ",", 123456.7890123},
	}
	for _, s := range seeds {
		f.Add(s.saddr, uint16(443), s.class, true, false, true, uint8(57), s.ts)
	}
	f.Fuzz(func(t *testing.T, saddr string, sport uint16, class string, success, repeat, cooldown bool, ttl uint8, ts float64) {
		r := Record{Saddr: saddr, Sport: sport, Classification: class, Success: success,
			Repeat: repeat, InCooldown: cooldown, TTL: ttl, Timestamp: ts}
		// A second, plain record checks that the reused row buffer carries
		// nothing over from the first.
		plain := NewRecord(0x0A000001, 80, "rst", false, true, false, 64, 0)
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		for _, rec := range []Record{r, plain, r} {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if want := referenceCSV(t, r, plain, r); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("CSVWriter output differs from encoding/csv\n got: %q\nwant: %q", buf.Bytes(), want)
		}
		if w.RecordsWritten() != 3 {
			t.Fatalf("RecordsWritten = %d, want 3", w.RecordsWritten())
		}
	})
}

// The merge writer formats every result row, so once its row buffer has
// grown a steady-state Write must not allocate.
func TestCSVWriterZeroAlloc(t *testing.T) {
	w := NewCSVWriter(io.Discard)
	r := NewRecord(0xC0A80001, 8080, "synack", true, false, true, 255, 1234567*time.Millisecond)
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1000, func() {
		r.Sport++
		r.Timestamp += 0.001
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("CSVWriter.Write allocates %.2f objects per row, want 0", a)
	}
}
