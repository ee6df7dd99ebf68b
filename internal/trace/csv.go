package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sprinkler/internal/req"
	"sprinkler/internal/sim"
)

// Record is one trace line in the repository's interchange format:
//
//	arrival_ns,op,lpn,pages
//
// with op being "R" or "W". Lines starting with '#' are comments.
type Record struct {
	Arrival sim.Time
	Kind    req.Kind
	LPN     req.LPN
	Pages   int
}

// Write emits records in the CSV format with a header comment.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# arrival_ns,op,lpn,pages"); err != nil {
		return err
	}
	for _, r := range recs {
		op := "W"
		if r.Kind == req.Read {
			op = "R"
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d\n", int64(r.Arrival), op, int64(r.LPN), r.Pages); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Reader parses the CSV format incrementally, one record per call, so a
// trace can be replayed without materializing it. It rejects malformed
// lines with the line number in the error.
type Reader struct {
	sc     *bufio.Scanner
	lineNo int
}

// NewReader wraps r for incremental parsing.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &Reader{sc: sc}
}

// Next returns the next record. It returns io.EOF at the end of input and
// a descriptive error on a malformed line.
func (r *Reader) Next() (Record, error) {
	for r.sc.Scan() {
		r.lineNo++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return r.parseLine(line)
	}
	if err := r.sc.Err(); err != nil {
		// The scanner fails on the line after the last one it returned,
		// e.g. a line longer than the 1 MB buffer.
		return Record{}, fmt.Errorf("trace: line %d: %w", r.lineNo+1, err)
	}
	return Record{}, io.EOF
}

func (r *Reader) parseLine(line string) (Record, error) {
	fields := strings.Split(line, ",")
	if len(fields) != 4 {
		return Record{}, fmt.Errorf("trace: line %d: want 4 fields, got %d", r.lineNo, len(fields))
	}
	arrival, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil || arrival < 0 {
		return Record{}, fmt.Errorf("trace: line %d: bad arrival %q", r.lineNo, fields[0])
	}
	var kind req.Kind
	switch strings.ToUpper(strings.TrimSpace(fields[1])) {
	case "R":
		kind = req.Read
	case "W":
		kind = req.Write
	default:
		return Record{}, fmt.Errorf("trace: line %d: bad op %q", r.lineNo, fields[1])
	}
	lpn, err := strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
	if err != nil || lpn < 0 {
		return Record{}, fmt.Errorf("trace: line %d: bad lpn %q", r.lineNo, fields[2])
	}
	pages, err := strconv.Atoi(strings.TrimSpace(fields[3]))
	if err != nil || pages <= 0 {
		return Record{}, fmt.Errorf("trace: line %d: bad pages %q", r.lineNo, fields[3])
	}
	return Record{Arrival: sim.Time(arrival), Kind: kind, LPN: req.LPN(lpn), Pages: pages}, nil
}
