package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// NoAlloc turns the AllocsPerRun tests on the refinement hot path into a
// compile-time gate. Functions marked //mapcheck:noalloc — the SwapSession
// kernels, the evaluator fill passes, the refiner inner loops — are checked against the compiler's own escape analysis: mapcheck
// rebuilds the marked packages with -gcflags=-m and fails on any "escapes
// to heap" / "moved to heap" diagnostic attributed to a marked function's
// body, including its closures.
//
// Deliberate, amortized allocations (a once-per-run scratch buffer, a cold
// grow path) are waived line-by-line with //mapcheck:allow <reason>.
//
// The gate is attribution-based, so it is sharp about direct regressions —
// a new fmt.Sprintf, a captured closure, a slice that outgrows its scratch
// — but an allocation inside a callee is attributed to the callee, not the
// marked caller. The dynamic AllocsPerRun tests still cover that hole; the
// two gates are complementary.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "fail on compiler-reported heap escapes inside functions marked " +
		"//mapcheck:noalloc (the zero-allocs-per-trial contract of the " +
		"refinement kernels)",
	Run: runNoAlloc,
}

// escapeDiag is one parsed -gcflags=-m heap diagnostic.
type escapeDiag struct {
	file      string
	line, col int
	msg       string
}

// funcSpan is one marked function's source extent.
type funcSpan struct {
	pkg        *Package
	name       string
	file       string
	start, end int
}

func runNoAlloc(prog *Program) ([]Diagnostic, error) {
	var spans []funcSpan
	pkgSet := map[string]bool{}
	var pkgPaths []string
	hasMain := false
	for _, pkg := range prog.Packages {
		for _, fm := range pkg.Directives.Funcs {
			if !fm.NoAlloc || fm.Waived || fm.Decl.Body == nil {
				continue
			}
			start := prog.Fset.Position(fm.Decl.Pos())
			end := prog.Fset.Position(fm.Decl.End())
			spans = append(spans, funcSpan{
				pkg:   pkg,
				name:  funcDisplayName(fm),
				file:  start.Filename,
				start: start.Line,
				end:   end.Line,
			})
			if !pkgSet[pkg.Path] {
				pkgSet[pkg.Path] = true
				pkgPaths = append(pkgPaths, pkg.Path)
				if pkg.Types.Name() == "main" {
					hasMain = true
				}
			}
		}
	}
	if len(spans) == 0 {
		return nil, nil
	}

	escapes, err := escapeDiagnostics(prog.ModuleDir, pkgPaths, hasMain)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, e := range escapes {
		for i := range spans {
			s := &spans[i]
			if e.file != s.file || e.line < s.start || e.line > s.end {
				continue
			}
			pos := token.Position{Filename: e.file, Line: e.line, Column: e.col}
			if allowedAt(s.pkg.Directives, pos) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: "noalloc",
				Message: fmt.Sprintf("heap allocation in //mapcheck:noalloc function %s: %s — hoist it to construction, reuse session scratch, or waive an amortized allocation with //mapcheck:allow <reason>",
					s.name, e.msg),
			})
			break
		}
	}
	return diags, nil
}

// escapeDiagnostics rebuilds the named packages with escape-analysis
// diagnostics enabled and parses the heap escapes out of the compiler
// chatter. The build cache replays compiler output, so warm runs are
// nearly free. Binaries of main packages, if any, land in a throwaway
// directory.
func escapeDiagnostics(moduleDir string, pkgPaths []string, hasMain bool) ([]escapeDiag, error) {
	args := []string{"build"}
	if hasMain {
		tmp, err := os.MkdirTemp("", "mapcheck-noalloc-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		args = append(args, "-o", tmp)
	}
	args = append(args, "-gcflags=-m=1")
	args = append(args, pkgPaths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m %v: %v\n%s", pkgPaths, err, stderr.Bytes())
	}
	return parseEscapes(moduleDir, stderr.String()), nil
}

// parseEscapes extracts "file:line:col: msg" heap diagnostics, resolving
// paths relative to the module root.
func parseEscapes(moduleDir, out string) []escapeDiag {
	var diags []escapeDiag
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		file, lno, col, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleDir, file)
		}
		diags = append(diags, escapeDiag{file: file, line: lno, col: col, msg: msg})
	}
	return diags
}

// splitDiag parses one compiler diagnostic line.
func splitDiag(line string) (file string, lno, col int, msg string, ok bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return "", 0, 0, "", false
	}
	lno, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return parts[0], lno, col, strings.TrimSpace(parts[3]), true
}

// allowedAt is Directives.Allowed for an already-resolved position.
func allowedAt(d *Directives, pos token.Position) bool {
	_, ok := d.allowLines[pos.Filename][pos.Line]
	return ok
}

// funcDisplayName renders Recv.Method or Func for messages.
func funcDisplayName(fm *FuncMark) string {
	name := fm.Decl.Name.Name
	if fm.Decl.Recv != nil && len(fm.Decl.Recv.List) == 1 {
		t := fm.Decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + name
		}
	}
	return name
}
