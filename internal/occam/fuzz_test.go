package occam

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzOccamParse checks that Parse never panics, whatever the source.
// Its seeds are the example pipeline and every string literal in this
// package's tests, so a plain `go test` runs them all.
func FuzzOccamParse(f *testing.F) {
	pipeline, err := os.ReadFile(filepath.Join("..", "..", "examples", "occam", "pipeline.occ"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(pipeline))
	for _, s := range stringLiterals(f, "*_test.go") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		Parse(src) // an error is fine; a panic fails
	})
}

// stringLiterals returns every string literal in the Go files that
// pattern matches.
func stringLiterals(f *testing.F, pattern string) []string {
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		f.Fatalf("no Go files match %q: %v", pattern, err)
	}
	var out []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		file, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}
