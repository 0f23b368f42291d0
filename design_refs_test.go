package crossbow

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignRefsResolve: every "DESIGN.md §N" (or "DESIGN §N") in a Go
// comment, test files included, names a section DESIGN.md has — a
// "## N." heading. A renumbered or deleted section fails here, not in a
// reader's search.
func TestDesignRefsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	// A citation may wrap, so the pattern runs over each comment group's
	// text with its line breaks.
	cite := regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+)`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			for _, m := range cite.FindAllStringSubmatch(g.Text(), -1) {
				refs++
				if !sections[m[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", path, m[1], m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md citations: the pattern or the walk is broken")
	}
	t.Logf("%d citations of %d sections resolve", refs, len(sections))
}
