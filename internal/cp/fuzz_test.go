package cp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"tseries/internal/fpu"
)

// FuzzCPAssemble checks that Assemble never panics, that Disassemble
// never panics on what it assembles, and that Disassemble never panics
// on arbitrary bytes. Its seeds are the program generators, the
// assembly example and every string literal in this package's tests,
// so a plain `go test` runs them all.
func FuzzCPAssemble(f *testing.F) {
	f.Add(ProgMemSet(0x30000, 7777, 50))
	f.Add(ProgSum(0x30000, 30))
	f.Add(ProgEcho(0, 0, 3))
	f.Add(ProgVectorDriver(0x20000, int(fpu.VAdd), 0, 300, 301, 0))
	for _, pattern := range []string{"*_test.go", filepath.Join("..", "..", "examples", "assembly", "*.go")} {
		for _, s := range stringLiterals(f, pattern) {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if code, err := Assemble(src); err == nil {
			Disassemble(code)
		}
		Disassemble([]byte(src))
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
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}
