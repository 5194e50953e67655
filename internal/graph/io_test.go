package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestProblemRoundTrip(t *testing.T) {
	p := diamond()
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(q) {
		t.Fatalf("round trip changed problem:\n%v\nvs\n%v", p, q)
	}
}

func TestSystemRoundTrip(t *testing.T) {
	s := square()
	s.Name = "fig-5a"
	var buf bytes.Buffer
	if err := WriteSystem(&buf, s); err != nil {
		t.Fatal(err)
	}
	u, err := ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(u) {
		t.Fatal("round trip changed system")
	}
	if u.Name != "fig-5a" {
		t.Fatalf("name = %q, want fig-5a", u.Name)
	}
}

func TestClusteringRoundTrip(t *testing.T) {
	c := runningClustering()
	var buf bytes.Buffer
	if err := WriteClustering(&buf, c); err != nil {
		t.Fatal(err)
	}
	d, err := ReadClustering(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Of {
		if c.Of[i] != d.Of[i] {
			t.Fatalf("Of[%d] = %d, want %d", i, d.Of[i], c.Of[i])
		}
	}
	if d.K != c.K {
		t.Fatalf("K = %d, want %d", d.K, c.K)
	}
}

func TestReadProblemCommentsAndBlanks(t *testing.T) {
	in := `
# a problem with comments
problem 2

task 0 3
task 1 4
# edge below
edge 0 1 2
`
	p, err := ReadProblem(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Size[0] != 3 || p.Size[1] != 4 || !slices.Equal(p.EdgeList(), [][3]int{{0, 1, 2}}) {
		t.Fatalf("parsed wrong problem: %+v", p)
	}
}

func TestReadProblemErrors(t *testing.T) {
	cases := map[string]string{
		"no header":         "task 0 1\n",
		"unknown directive": "problem 1\nfrobnicate 1\n",
		"bad number":        "problem x\n",
		"missing field":     "problem 2\ntask 0\n",
		"task out of range": "problem 1\ntask 5 1\n",
		"edge out of range": "problem 1\nedge 0 5 1\n",
		"empty input":       "",
		"cyclic":            "problem 2\nedge 0 1 1\nedge 1 0 1\n",
		"negative weight":   "problem 2\nedge 0 1 -4\n",
		"negative size":     "problem -1\n",
		"absurd size":       "problem 99999999\n", // must fail before allocating n×n
	}
	for name, in := range cases {
		if _, err := ReadProblem(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadProblem accepted %q", name, in)
		}
	}
}

func TestReadSystemErrors(t *testing.T) {
	cases := map[string]string{
		"no header":         "link 0 1\n",
		"unknown directive": "system 2\nnope\n",
		"link out of range": "system 2\nlink 0 9\n",
		"disconnected":      "system 3\nlink 0 1\n",
		"empty input":       "",
		"negative size":     "system -2\n",
		"absurd size":       "system 99999999\n",
		"repeated header":   "system 2\nlink 0 1\nsystem 2\nlink 0 1\n",
	}
	for name, in := range cases {
		if _, err := ReadSystem(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadSystem accepted %q", name, in)
		}
	}
}

func TestReadClusteringErrors(t *testing.T) {
	cases := map[string]string{
		"no header":       "assign 0 0\n",
		"out of range":    "clustering 2 2\nassign 0 0\nassign 1 5\n",
		"empty cluster":   "clustering 2 2\nassign 0 0\nassign 1 0\n",
		"bad task":        "clustering 1 1\nassign 9 0\n",
		"negative size":   "clustering -3 1\n",
		"absurd k":        "clustering 2 99999999\n",
		"repeated header": "clustering 1 1\nassign 0 0\nclustering 1 1\n",
	}
	for name, in := range cases {
		if _, err := ReadClustering(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadClustering accepted %q", name, in)
		}
	}
}

func TestProblemRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 25)
		var buf bytes.Buffer
		if err := WriteProblem(&buf, p); err != nil {
			return false
		}
		q, err := ReadProblem(&buf)
		if err != nil {
			return false
		}
		return p.Equal(q)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadProblemRobustness(t *testing.T) {
	// Inputs that should parse (forgiving cases) and inputs that must not.
	good := map[string]string{
		"redeclared task size":  "problem 2\ntask 0 1\ntask 0 5\n",
		"edge weight updated":   "problem 2\nedge 0 1 1\nedge 0 1 7\n",
		"whitespace everywhere": "  problem   2  \n\n  task  1   4 \n",
	}
	for name, in := range good {
		if _, err := ReadProblem(strings.NewReader(in)); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	bad := map[string]string{
		"second header smaller": "problem 3\ntask 2 1\nproblem 1\ntask 2 1\n",
		"repeated header":       "problem 2\nproblem 2\n",
		"second header larger":  "problem 1\ntask 0 1\nproblem 3\n",
		"negative task":         "problem 1\ntask 0 -2\n",
		"float weight":          "problem 2\nedge 0 1 1.5\n",
		"trailing junk number":  "problem 2x\n",
	}
	for name, in := range bad {
		if _, err := ReadProblem(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestReadHeadersAllocateLinearly pins the cost of hostile headers: the
// 14-byte "problem 16384" must not allocate an np×np matrix (2 GiB when
// problems were dense), and a repeated system header must be rejected
// before it allocates a second system.
func TestReadHeadersAllocateLinearly(t *testing.T) {
	cases := []struct {
		in    string
		read  func(io.Reader) error
		limit uint64
	}{
		{"problem 16384\n", func(r io.Reader) error { _, err := ReadProblem(r); return err }, 1 << 20},
		{strings.Repeat("system 2048\n", 64), func(r io.Reader) error { _, err := ReadSystem(r); return err }, 8 << 20},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.read(strings.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= tc.limit {
			t.Errorf("%.16q… allocated %d bytes, limit %d", tc.in, got, tc.limit)
		}
	}
}

// TestReadSystemBounds pins the worst-case cost of a parsed machine: a
// header-only "system 16384" allocates O(ns) (256 MB when systems were a
// dense ns×ns matrix) before it is rejected as disconnected, and the first
// distinct link past MaxTextLinks is rejected.
func TestReadSystemBounds(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSystem(strings.NewReader(fmt.Sprintf("system %d\n", MaxTextNodes)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Fatalf("header-only system: err = %v, want a connectivity error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("header-only system allocated %d bytes", got)
	}

	// Every link of the complete graph on n nodes, one more than the bound,
	// streamed so the text itself is never held in memory.
	n := 2
	for n*(n-1)/2 <= MaxTextLinks {
		n++
	}
	pr, pw := io.Pipe()
	go func() {
		w := bufio.NewWriter(pw)
		fmt.Fprintf(w, "system %d\n", n)
		var line []byte
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ { // b == a: self-links never count
				line = strconv.AppendInt(append(line[:0], "link "...), int64(a), 10)
				line = strconv.AppendInt(append(line, ' '), int64(b), 10)
				w.Write(append(line, '\n'))
			}
		}
		pw.CloseWithError(w.Flush())
	}()
	_, err = ReadSystem(pr)
	pr.Close()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d links", MaxTextLinks)) {
		t.Fatalf("system with more than MaxTextLinks links: err = %v", err)
	}
}

func TestReadProblemVeryLongLine(t *testing.T) {
	// A comment line near the scanner's buffer limit must not break parsing.
	long := "# " + strings.Repeat("x", 100000) + "\nproblem 1\ntask 0 2\n"
	p, err := ReadProblem(strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	if p.Size[0] != 2 {
		t.Fatal("long-comment input parsed wrong")
	}
}
