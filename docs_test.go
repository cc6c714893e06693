package dynautosar

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dynautosar/internal/api"
)

// The documentation gates of CI's docs job: every internal package must
// carry a package comment (so `go doc` gives a real contract), and the
// repository's markdown must not link to files that do not exist.

// TestDocsEveryInternalPackageHasComment fails when an internal package
// has no package-level doc comment on any of its files.
func TestDocsEveryInternalPackageHasComment(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found")
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package comment; add a doc.go or a package-level comment", name, dir)
			}
		}
	}
}

// mdLink matches inline markdown links [text](target).
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsMarkdownLinksResolve checks that relative links in the
// top-level markdown files point at files that exist.
func TestDocsMarkdownLinksResolve(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "CHANGES.md", "ROADMAP.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q which does not exist", doc, m[1])
			}
		}
	}
}

// TestDocsNamedFilesExist keeps the files the package comment and
// README point at from going stale.
func TestDocsNamedFilesExist(t *testing.T) {
	for _, f := range []string{"README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("referenced file %s missing: %v", f, err)
		}
	}
}

// endpointRow matches a row of DESIGN.md's endpoint table: a backticked
// "VERB /v1/path" (an illustrative ?query dropped) in the first column.
var endpointRow = regexp.MustCompile("(?m)^\\| `(GET|POST) (/v1/[^`?]*)[^`]*` \\|")

// TestDocsEndpointTableMatchesRoutes keeps DESIGN.md's /v1 endpoint
// table and the api.Routes table equal in both directions.
func TestDocsEndpointTableMatchesRoutes(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, m := range endpointRow.FindAllStringSubmatch(string(raw), -1) {
		documented[m[1]+" "+m[2]] = true
	}
	served := make(map[string]bool, len(api.Routes))
	for _, rt := range api.Routes {
		served[rt.Verb+" "+rt.Path] = true
		if !documented[rt.Verb+" "+rt.Path] {
			t.Errorf("DESIGN.md endpoint table lacks `%s %s` (%s)", rt.Verb, rt.Path, rt.Name)
		}
	}
	for ep := range documented {
		if !served[ep] {
			t.Errorf("DESIGN.md documents `%s`, which api.Routes does not serve", ep)
		}
	}
}
