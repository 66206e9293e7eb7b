package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Each analyzer runs over its golden package, testdata/gates/<analyzer> at
// the module root: every `// want` expectation must fire and nothing else
// may be reported. The golden files include, per analyzer, at least one
// report case, one false-positive guard (code that looks close but is
// clean), and one reasoned //snavet: waiver.

func TestCtxLoopGolden(t *testing.T)      { checkGolden(t, CtxLoop) }
func TestMapDetermGolden(t *testing.T)    { checkGolden(t, MapDeterm) }
func TestNaNGuardGolden(t *testing.T)     { checkGolden(t, NaNGuard) }
func TestDeferReleaseGolden(t *testing.T) { checkGolden(t, DeferRelease) }
func TestAckOrderGolden(t *testing.T)     { checkGolden(t, AckOrder) }

// server is the real internal/server, which ackorder holds, loaded as the
// source gates load the module; its export data covers every import of the
// golden packages, which are type-checked against it.
var server = sync.OnceValues(func() (*Module, error) {
	return Load("../..", "./internal/server")
})

func loadServer(t *testing.T) *Module {
	t.Helper()
	m, err := server()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wantRe matches one quoted pattern of a `// want` comment, a double-quoted
// or a backquoted Go string.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// checkGolden runs one analyzer over its golden package: each finding must
// match a `// want` pattern on its line, and each pattern must match one
// finding. A waived finding is not reported, so a golden file shows a
// waiver works by carrying the directive and no want. The package's path
// lies in every analyzer's package scope.
func checkGolden(t *testing.T, a *Analyzer) {
	t.Helper()
	m := loadServer(t)
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "gates", a.Name, "*.go"))
	p, err := m.Check(a.Name+"/internal/server", files)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*regexp.Regexp{} // by file:line
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, list, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				at := m.Fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(list, -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want %s: %v", at, q, err)
					}
					key := fmt.Sprintf("%s:%d", at.Filename, at.Line)
					wants[key] = append(wants[key], regexp.MustCompile(pat))
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("%s: no want in %v", a.Name, files)
	}
	for _, d := range Active(Run(m.Fset, p.Files, p.Types, p.Info, []*Analyzer{a})) {
		at := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		i := slices.IndexFunc(wants[at], func(re *regexp.Regexp) bool { return re.MatchString(d.Message) })
		if i < 0 {
			t.Errorf("%s: unexpected finding: %s (%s)", at, d.Message, d.Analyzer)
			continue
		}
		wants[at] = slices.Delete(wants[at], i, i+1)
	}
	for at, res := range wants {
		for _, re := range res {
			t.Errorf("%s: no finding matches %q", at, re)
		}
	}
}
