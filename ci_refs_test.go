package crossbow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunTermsMatch: every `|`-separated term of every `go test … -run
// '<re>' <pkgs>` command in the CI workflow matches at least one Test,
// Benchmark or Fuzz function declared in those packages' _test.go files. A
// renamed or deleted test otherwise leaves its step running less than it
// says, and passing. `-run '^$'` (run nothing, benchmark only) is exempt.
// The check reads the sources; it runs no `go test -list`.
func TestCIRunTermsMatch(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	goTest := regexp.MustCompile(`go test [^&;]*`)
	cmds := 0
	for _, line := range strings.Split(string(workflow), "\n") {
		for _, seg := range goTest.FindAllString(line, -1) {
			re, pkgs := runFlag(shellFields(seg))
			if re == "" || re == "^$" {
				continue
			}
			cmds++
			if len(pkgs) == 0 {
				t.Errorf("ci.yml: %q names no package", seg)
				continue
			}
			var funcs []string
			for _, p := range pkgs {
				funcs = append(funcs, testFuncs(t, p)...)
			}
			for _, term := range strings.Split(re, "|") {
				top, _, _ := strings.Cut(term, "/") // -run splits subtest levels at '/'
				m, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("ci.yml: -run term %q of %q: %v", term, seg, err)
					continue
				}
				if !anyMatch(m, funcs) {
					t.Errorf("ci.yml: -run term %q matches no test in %v (%q)", term, pkgs, seg)
				}
			}
		}
	}
	if cmds == 0 {
		t.Fatal("found no `go test … -run` command in ci.yml: the pattern or the workflow changed")
	}
	t.Logf("%d -run commands checked", cmds)
}

// shellFields splits a command line at blanks outside single or double
// quotes and drops the quotes — enough of a shell for the workflow's
// `go test` lines.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	var quote rune
	inField := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inField = r, true
		case r == ' ' || r == '\t':
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// runFlag returns a `go test` command's -run value and its package
// arguments (the fields that are relative paths).
func runFlag(fields []string) (re string, pkgs []string) {
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		switch {
		case f == "-run" && i+1 < len(fields):
			re = fields[i+1]
			i++
		case strings.HasPrefix(f, "-run="):
			re = strings.TrimPrefix(f, "-run=")
		case f == "." || strings.HasPrefix(f, "./"):
			pkgs = append(pkgs, f)
		}
	}
	return re, pkgs
}

// testFuncs lists the Test, Benchmark and Fuzz functions declared in the
// _test.go files of a package pattern: a directory, or dir/... for the tree
// under it.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(filepath.Clean(dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.Clean(dir) && (!recursive || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ci.yml package %s: %v", pkg, err)
	}
	return names
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
