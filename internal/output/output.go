// Package output implements ZMap's result pipeline, following the §5
// lessons verbatim:
//
//   - only well-worn text interfaces — Text, CSV, and JSON Lines — after
//     the database-specific output modules proved to be liabilities and
//     were removed ("Tools Not Frameworks");
//   - a static, fully typed record schema: every field has one type that
//     never depends on another field's value ("Static Types and Output
//     Schema");
//   - per-record streaming, so results can be piped into downstream tools
//     while a scan runs; and
//   - output filters in ZMap's expression syntax (e.g.
//     "success = 1 && repeat = 0") so callers choose which classifications
//     reach the stream.
package output

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"zmapgo/internal/target"
)

// Record is one scan result. The field set is fixed and each field is a
// single static type (the schema lesson from §5); Schema() documents it
// machine-readably.
type Record struct {
	Saddr          string  `json:"saddr"`
	Sport          uint16  `json:"sport"`
	Classification string  `json:"classification"`
	Success        bool    `json:"success"`
	Repeat         bool    `json:"repeat"`
	InCooldown     bool    `json:"cooldown"`
	TTL            uint8   `json:"ttl"`
	Timestamp      float64 `json:"timestamp"` // seconds since scan start
}

// NewRecord builds a Record from raw classifier output.
func NewRecord(ip uint32, port uint16, class string, success, repeat, cooldown bool, ttl uint8, elapsed time.Duration) Record {
	return Record{
		Saddr:          target.FormatIPv4(ip),
		Sport:          port,
		Classification: class,
		Success:        success,
		Repeat:         repeat,
		InCooldown:     cooldown,
		TTL:            ttl,
		Timestamp:      elapsed.Seconds(),
	}
}

// FieldDoc describes one schema field.
type FieldDoc struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Doc  string `json:"doc"`
}

// Schema returns the machine-readable record schema (the ZSchema lesson).
func Schema() []FieldDoc {
	return []FieldDoc{
		{"saddr", "string", "responding IPv4 address, dotted quad"},
		{"sport", "uint16", "scanned port (responder source port)"},
		{"classification", "string", "response class: synack|rst|echoreply|udp|port-unreach"},
		{"success", "bool", "true when the class indicates an open service"},
		{"repeat", "bool", "true when deduplication saw this target before"},
		{"cooldown", "bool", "true when received after sending finished"},
		{"ttl", "uint8", "IP TTL observed on the response"},
		{"timestamp", "float64", "seconds since scan start"},
	}
}

// Writer consumes records. Implementations are not safe for concurrent
// use; the engine writes from its single receive goroutine.
type Writer interface {
	Write(Record) error
	Close() error
}

// Flusher is implemented by writers that buffer records. The engine
// flushes before every checkpoint snapshot so a crash loses at most one
// checkpoint interval of results, not a buffer's worth. Wrapping writers
// forward Flush to their inner writer.
type Flusher interface {
	Flush() error
}

// Flush pushes buffered records in w (or any writer it wraps) to the
// underlying stream. Writers without buffers flush trivially.
func Flush(w Writer) error {
	if f, ok := w.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// WrittenCounter is implemented by writers that can report how many
// records they have emitted to their stream. Wrappers forward to the
// writer they wrap, so a Filtered writer reports records that passed the
// filter — the count of rows actually in the output, which is what the
// checkpoint's crash-loss bound is stated against.
type WrittenCounter interface {
	RecordsWritten() uint64
}

// Written reports how many records w has emitted, or 0 when the writer
// cannot say.
func Written(w Writer) uint64 {
	if c, ok := w.(WrittenCounter); ok {
		return c.RecordsWritten()
	}
	return 0
}

// TextWriter emits one address per line (ZMap's default human output).
// With ShowPort true it emits addr:port, appropriate for multiport scans.
type TextWriter struct {
	w        io.Writer
	ShowPort bool
	written  uint64
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer, showPort bool) *TextWriter {
	return &TextWriter{w: w, ShowPort: showPort}
}

// Write implements Writer.
func (t *TextWriter) Write(r Record) error {
	var err error
	if t.ShowPort {
		_, err = fmt.Fprintf(t.w, "%s:%d\n", r.Saddr, r.Sport)
	} else {
		_, err = fmt.Fprintln(t.w, r.Saddr)
	}
	if err == nil {
		t.written++
	}
	return err
}

// RecordsWritten implements WrittenCounter.
func (t *TextWriter) RecordsWritten() uint64 { return t.written }

// Close implements Writer.
func (t *TextWriter) Close() error { return nil }

// csvHeader matches Schema() order.
var csvHeader = []string{"saddr", "sport", "classification", "success", "repeat", "cooldown", "ttl", "timestamp"}

// CSVHeader returns the CSV column header row in Schema() order, for
// consumers that read or re-emit CSV results (e.g. the fleet merge).
func CSVHeader() []string { return append([]string(nil), csvHeader...) }

// CSVWriter emits the full schema as CSV with a header row. Each row is
// formatted into a reused buffer, so a steady-state Write allocates
// nothing; the bytes equal what encoding/csv writes for the same fields.
type CSVWriter struct {
	w           *bufio.Writer
	row         []byte
	wroteHeader bool
	written     uint64
}

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriter(w)}
}

// Write implements Writer.
func (c *CSVWriter) Write(r Record) error {
	b := c.row[:0]
	if !c.wroteHeader {
		b = append(b, strings.Join(csvHeader, ",")+"\n"...)
	}
	b = appendCSVField(b, r.Saddr)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.Sport), 10)
	b = append(b, ',')
	b = appendCSVField(b, r.Classification)
	b = append(b, ',', boolDigit(r.Success), ',', boolDigit(r.Repeat), ',', boolDigit(r.InCooldown), ',')
	b = strconv.AppendUint(b, uint64(r.TTL), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.Timestamp, 'f', 6, 64)
	c.row = append(b, '\n')
	if _, err := c.w.Write(c.row); err != nil {
		return err
	}
	c.wroteHeader = true
	c.written++
	return nil
}

// appendCSVField appends f as encoding/csv's Writer (Comma ',', LF line
// endings) would: quoted, with quotes doubled, exactly when it holds a
// comma, quote, CR or LF, is the Postgres terminator `\.`, or starts
// with a Unicode space.
func appendCSVField(b []byte, f string) []byte {
	if !csvNeedsQuotes(f) {
		return append(b, f...)
	}
	b = append(b, '"')
	b = append(b, strings.ReplaceAll(f, `"`, `""`)...)
	return append(b, '"')
}

func csvNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` || strings.ContainsAny(f, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}

// RecordsWritten implements WrittenCounter. Rows are counted when handed
// to the csv buffer; they are durable only after Flush, which is why the
// engine captures the count inside the same critical section as the
// checkpoint-time flush.
func (c *CSVWriter) RecordsWritten() uint64 { return c.written }

func boolDigit(b bool) byte {
	if b {
		return '1'
	}
	return '0'
}

// Flush implements Flusher: rows are buffered, so an unflushed crash
// would lose everything since the last Flush.
func (c *CSVWriter) Flush() error { return c.w.Flush() }

// Close implements Writer.
func (c *CSVWriter) Close() error { return c.Flush() }

// JSONLWriter emits one JSON object per line (JSON Lines).
type JSONLWriter struct {
	enc     *json.Encoder
	written uint64
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// Write implements Writer.
func (j *JSONLWriter) Write(r Record) error {
	if err := j.enc.Encode(r); err != nil {
		return err
	}
	j.written++
	return nil
}

// RecordsWritten implements WrittenCounter.
func (j *JSONLWriter) RecordsWritten() uint64 { return j.written }

// Close implements Writer.
func (j *JSONLWriter) Close() error { return nil }

// NewWriter constructs a writer by format name: "text", "csv", "jsonl".
func NewWriter(format string, w io.Writer, multiport bool) (Writer, error) {
	switch format {
	case "text", "":
		return NewTextWriter(w, multiport), nil
	case "csv":
		return NewCSVWriter(w), nil
	case "jsonl", "json":
		return NewJSONLWriter(w), nil
	default:
		return nil, fmt.Errorf("output: unknown format %q (text|csv|jsonl)", format)
	}
}

// Filtered wraps a Writer, forwarding only records the filter accepts.
type Filtered struct {
	W      Writer
	Filter *Filter
}

// Write implements Writer.
func (f *Filtered) Write(r Record) error {
	if f.Filter != nil && !f.Filter.Match(r) {
		return nil
	}
	return f.W.Write(r)
}

// Close implements Writer.
func (f *Filtered) Close() error { return f.W.Close() }

// Flush implements Flusher by forwarding to the wrapped writer.
func (f *Filtered) Flush() error { return Flush(f.W) }

// RecordsWritten implements WrittenCounter: only records that passed the
// filter reached the wrapped writer, so its count is the row count of
// the actual output.
func (f *Filtered) RecordsWritten() uint64 { return Written(f.W) }

// CountingWriter wraps a Writer and counts records passed through.
type CountingWriter struct {
	W     Writer
	Count uint64
}

// Write implements Writer.
func (c *CountingWriter) Write(r Record) error {
	c.Count++
	if c.W == nil {
		return nil
	}
	return c.W.Write(r)
}

// Close implements Writer.
func (c *CountingWriter) Close() error {
	if c.W == nil {
		return nil
	}
	return c.W.Close()
}

// Flush implements Flusher by forwarding to the wrapped writer.
func (c *CountingWriter) Flush() error {
	if c.W == nil {
		return nil
	}
	return Flush(c.W)
}

// RecordsWritten implements WrittenCounter: the wrapped writer's count
// when one exists (it may emit fewer rows than passed through here), or
// this writer's own tally when it is the sink.
func (c *CountingWriter) RecordsWritten() uint64 {
	if c.W == nil {
		return c.Count
	}
	return Written(c.W)
}
