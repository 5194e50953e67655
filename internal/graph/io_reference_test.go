package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// scanLinesReference is the text format's original line scanner, kept as
// the oracle for scanLines: one string per line, trimmed and split by the
// strings package, fields copied out for the shared handlers.
func scanLinesReference(r io.Reader, handle func(fields [][]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var fields [][]byte
		for _, f := range strings.Fields(text) {
			fields = append(fields, []byte(f))
		}
		if err := handle(fields); err != nil {
			return fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// parseOutcome is what a reader made of one input: its error text, or
// the fingerprint of the graph it accepted.
func parseOutcome(scan lineScanner, kind, in string) string {
	var fp Fingerprint
	var err error
	switch kind {
	case "problem":
		var p *Problem
		if p, err = readProblem(strings.NewReader(in), scan); err == nil {
			fp = p.Fingerprint()
		}
	case "system":
		var s *System
		if s, err = readSystem(strings.NewReader(in), scan); err == nil {
			fp = s.Fingerprint()
		}
	default:
		var c *Clustering
		if c, err = readClustering(strings.NewReader(in), scan); err == nil {
			fp = c.Fingerprint()
		}
	}
	if err != nil {
		return "error: " + err.Error()
	}
	return "ok " + fp.String()
}

// mutationBytes are the bytes the mutator splices in: every separator the
// two scanners must agree on (ASCII and Unicode white space, bytes that
// are not valid UTF-8 on their own), comment markers, signs and digits.
var mutationBytes = []string{
	" ", "\t", "\v", "\f", "\r", "\n", "\r\n", "\u00a0", "\u0085", "\u2003", "\u3000",
	"\xc2", "\x85", "\xff", "é", "#", "-", "+", "0", "1", "7", "99999999999999999999", "_",
	"task", "edge", "link", "assign", "problem", "system", "clustering",
}

// mutate applies a few random byte-level edits to in.
func mutate(rng *rand.Rand, in string) string {
	b := []byte(in)
	for edits := 1 + rng.Intn(4); edits > 0; edits-- {
		pos := 0
		if len(b) > 0 {
			pos = rng.Intn(len(b))
		}
		switch rng.Intn(4) {
		case 0: // insert a chosen token
			ins := mutationBytes[rng.Intn(len(mutationBytes))]
			b = append(b[:pos], append([]byte(ins), b[pos:]...)...)
		case 1: // delete a byte
			if len(b) > 0 {
				b = append(b[:pos], b[pos+1:]...)
			}
		case 2: // replace a byte with a random one
			if len(b) > 0 {
				b[pos] = byte(rng.Intn(256))
			}
		default: // duplicate a span
			if len(b) > 0 {
				end := pos + rng.Intn(len(b)-pos) + 1
				b = append(b[:end], append(append([]byte(nil), b[pos:end]...), b[end:]...)...)
			}
		}
	}
	return string(b)
}

// TestScanLinesMatchesReference is the differential test of the
// allocation-free line scanner: over the three fuzz seed corpora, random
// byte mutations of them and the over-long-line limit, every reader must
// reach the same verdict, the same error text and the same fingerprint
// under scanLines as under the original scanner.
func TestScanLinesMatchesReference(t *testing.T) {
	var corpus []string
	corpus = append(corpus, fuzzSeedProblems()...)
	corpus = append(corpus, fuzzSeedSystems()...)
	corpus = append(corpus, fuzzSeedClusterings()...)
	corpus = append(corpus,
		"", "\n\n", "   # only a comment\n", "problem x\n", "system 3\nlink 0 1\n",
		"\u00a0problem\u00a01\u2003\ntask 0 2\n", "system 2 two\u3000words here\nlink 0 1\n",
	)
	rng := rand.New(rand.NewSource(1991))
	seeds := len(corpus)
	for i := 0; i < 3000; i++ {
		corpus = append(corpus, mutate(rng, corpus[rng.Intn(seeds)]))
	}
	// Lines at and just past the 1 MB limit.
	corpus = append(corpus,
		"clustering 1 1\n"+strings.Repeat("x", 1<<20+1)+"\n",
		"problem 1\n#"+strings.Repeat(" ", 1<<20-2)+"\ntask 0 1\n",
	)
	accepted := 0
	for _, in := range corpus {
		for _, kind := range []string{"problem", "system", "clustering"} {
			got, want := parseOutcome(scanLines, kind, in), parseOutcome(scanLinesReference, kind, in)
			if got != want {
				t.Fatalf("%s reader on %q:\n scanLines: %s\n reference: %s", kind, in, got, want)
			}
			if strings.HasPrefix(got, "ok ") {
				accepted++
			}
		}
	}
	t.Logf("%d inputs, %d accepted parses agree", len(corpus), accepted)
}
