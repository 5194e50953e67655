package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// The text format shared by the cmd/ tools is line-oriented:
//
//	# comment
//	problem <np>
//	task <id> <size>
//	edge <src> <dst> <weight>
//
//	system <ns> [name]
//	link <a> <b>
//
//	clustering <np> <k>
//	assign <task> <cluster>
//
// Unknown directives are errors; blank lines and #-comments are skipped.
// Each input holds one header. Header sizes are bounded by MaxTextNodes,
// so a hostile few-byte header ("system 99999999") cannot allocate more
// than O(MaxTextNodes) before validation rejects it. A system's links are
// bounded by MaxTextLinks: its neighbour lists take 16 bytes per link, so
// the bound caps a parsed machine at 64 MB of links plus row growth slack.

// MaxTextNodes bounds the declared size of any graph read from the text
// format — tasks of a problem, nodes of a system, tasks of a clustering.
const MaxTextNodes = 1 << 14

// MaxTextLinks bounds the distinct links of a system read from the text
// format, and of a named topology (topology.ByName).
const MaxTextLinks = 1 << 22

// headerSize validates a parsed header count against [0, MaxTextNodes].
func headerSize(n int, what string) error {
	if n < 0 {
		return fmt.Errorf("%s %d is negative", what, n)
	}
	if n > MaxTextNodes {
		return fmt.Errorf("%s %d exceeds the text-format limit %d", what, n, MaxTextNodes)
	}
	return nil
}

// WriteProblem writes p in the text format.
func WriteProblem(w io.Writer, p *Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "problem %d\n", p.NumTasks())
	for i, s := range p.Size {
		fmt.Fprintf(bw, "task %d %d\n", i, s)
	}
	for _, a := range settle(p.edges) {
		if a.W > 0 {
			fmt.Fprintf(bw, "edge %d %d %d\n", a.From, a.To, a.W)
		}
	}
	return bw.Flush()
}

// WriteSystem writes s in the text format.
func WriteSystem(w io.Writer, s *System) error {
	bw := bufio.NewWriter(w)
	if s.Name != "" {
		fmt.Fprintf(bw, "system %d %s\n", s.NumNodes(), s.Name)
	} else {
		fmt.Fprintf(bw, "system %d\n", s.NumNodes())
	}
	for i, row := range s.adj {
		for _, j := range row {
			if j > i {
				fmt.Fprintf(bw, "link %d %d\n", i, j)
			}
		}
	}
	return bw.Flush()
}

// WriteClustering writes c in the text format.
func WriteClustering(w io.Writer, c *Clustering) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "clustering %d %d\n", c.NumTasks(), c.K)
	for t, k := range c.Of {
		fmt.Fprintf(bw, "assign %d %d\n", t, k)
	}
	return bw.Flush()
}

// ReadProblem parses a problem graph from the text format and validates it.
func ReadProblem(r io.Reader) (*Problem, error) { return readProblem(r, scanLines) }

func readProblem(r io.Reader, scan lineScanner) (*Problem, error) {
	var p *Problem
	err := scan(r, func(fields [][]byte) error {
		switch string(fields[0]) {
		case "problem":
			if p != nil {
				return fmt.Errorf("repeated problem header")
			}
			n, err := atoiField(fields, 1, "problem size")
			if err != nil {
				return err
			}
			if err := headerSize(n, "problem size"); err != nil {
				return err
			}
			p = NewProblem(n)
		case "task":
			if p == nil {
				return fmt.Errorf("task before problem header")
			}
			id, err := atoiField(fields, 1, "task id")
			if err != nil {
				return err
			}
			sz, err := atoiField(fields, 2, "task size")
			if err != nil {
				return err
			}
			if id < 0 || id >= p.NumTasks() {
				return fmt.Errorf("task id %d out of range [0,%d)", id, p.NumTasks())
			}
			p.Size[id] = sz
		case "edge":
			if p == nil {
				return fmt.Errorf("edge before problem header")
			}
			src, err := atoiField(fields, 1, "edge src")
			if err != nil {
				return err
			}
			dst, err := atoiField(fields, 2, "edge dst")
			if err != nil {
				return err
			}
			w, err := atoiField(fields, 3, "edge weight")
			if err != nil {
				return err
			}
			if src < 0 || src >= p.NumTasks() || dst < 0 || dst >= p.NumTasks() {
				return fmt.Errorf("edge %d→%d out of range", src, dst)
			}
			p.SetEdge(src, dst, w)
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("graph: input contains no problem header")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadSystem parses a system graph from the text format and validates it.
func ReadSystem(r io.Reader) (*System, error) { return readSystem(r, scanLines) }

func readSystem(r io.Reader, scan lineScanner) (*System, error) {
	var s *System
	err := scan(r, func(fields [][]byte) error {
		switch string(fields[0]) {
		case "system":
			if s != nil {
				return fmt.Errorf("repeated system header")
			}
			n, err := atoiField(fields, 1, "system size")
			if err != nil {
				return err
			}
			if err := headerSize(n, "system size"); err != nil {
				return err
			}
			s = NewSystem(n)
			if len(fields) > 2 {
				s.Name = string(bytes.Join(fields[2:], []byte(" ")))
			}
		case "link":
			if s == nil {
				return fmt.Errorf("link before system header")
			}
			a, err := atoiField(fields, 1, "link a")
			if err != nil {
				return err
			}
			b, err := atoiField(fields, 2, "link b")
			if err != nil {
				return err
			}
			if a < 0 || a >= s.NumNodes() || b < 0 || b >= s.NumNodes() {
				return fmt.Errorf("link %d—%d out of range", a, b)
			}
			if s.NumLinks() >= MaxTextLinks && a != b && !s.HasLink(a, b) {
				return fmt.Errorf("more than %d links", MaxTextLinks)
			}
			s.AddLink(a, b)
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("graph: input contains no system header")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadClustering parses a clustering from the text format and validates it.
func ReadClustering(r io.Reader) (*Clustering, error) { return readClustering(r, scanLines) }

func readClustering(r io.Reader, scan lineScanner) (*Clustering, error) {
	var c *Clustering
	err := scan(r, func(fields [][]byte) error {
		switch string(fields[0]) {
		case "clustering":
			if c != nil {
				return fmt.Errorf("repeated clustering header")
			}
			n, err := atoiField(fields, 1, "clustering size")
			if err != nil {
				return err
			}
			k, err := atoiField(fields, 2, "clustering k")
			if err != nil {
				return err
			}
			if err := headerSize(n, "clustering size"); err != nil {
				return err
			}
			if err := headerSize(k, "clustering k"); err != nil {
				return err
			}
			c = NewClustering(n, k)
		case "assign":
			if c == nil {
				return fmt.Errorf("assign before clustering header")
			}
			t, err := atoiField(fields, 1, "assign task")
			if err != nil {
				return err
			}
			k, err := atoiField(fields, 2, "assign cluster")
			if err != nil {
				return err
			}
			if t < 0 || t >= c.NumTasks() {
				return fmt.Errorf("assign task %d out of range", t)
			}
			c.Of[t] = k
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("graph: input contains no clustering header")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// lineScanner feeds the fields of every non-blank, non-comment line of r
// to handle, wrapping a handler error with its line number. The fields
// alias the scanner's buffer and are valid only during the call.
type lineScanner func(r io.Reader, handle func(fields [][]byte) error) error

// scanLines is the text format's lineScanner. It splits each line in
// place into a reused field slice, so a line costs no allocation; a line
// holding a non-ASCII byte (which may encode Unicode white space) is
// split by bytes.Fields, the same rule strings.Fields applies. Lines may
// be up to 1 MB long.
func scanLines(r io.Reader, handle func(fields [][]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var fields [][]byte
	line := 0
	for sc.Scan() {
		line++
		fields = splitFields(sc.Bytes(), fields[:0])
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if err := handle(fields); err != nil {
			return fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// splitFields appends the white-space separated fields of b to fields.
func splitFields(b []byte, fields [][]byte) [][]byte {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return append(fields, bytes.Fields(b)...)
		}
	}
	start := -1
	for i, c := range b {
		if asciiSpace[c] {
			if start >= 0 {
				fields = append(fields, b[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		fields = append(fields, b[start:])
	}
	return fields
}

// asciiSpace marks the ASCII white-space bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func atoiField(fields [][]byte, idx int, what string) (int, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("missing %s", what)
	}
	n, err := strconv.Atoi(string(fields[idx]))
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, fields[idx])
	}
	return n, nil
}

// EdgeList returns the problem edges as (src,dst,weight) triples sorted by
// source then destination — a convenience for deterministic iteration and
// for rendering. It reads, and so freezes, the problem's View, whose edge
// IDs follow the same order.
func (p *Problem) EdgeList() [][3]int {
	var es [][3]int
	for _, a := range p.View().arcs {
		es = append(es, [3]int{a.From, a.To, a.W})
	}
	return es
}
