package wavescalar_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// facadeSentinels are the exported names kept without a caller: error
// sentinels a surviving facade function can return, each with that
// function. A caller matches them with errors.Is, so they stay spellable.
var facadeSentinels = map[string]string{
	"ErrBadOptions":    "RunWorkloadContext, NewExplorer, NewServer",
	"ErrMaxCycles":     "Processor.Run (BuildProcessor), RunWorkloadContext",
	"ErrBadCompletion": "Processor.Run",
	"ErrBadScenario":   "ParseScenario",
}

// TestFacadeNamesHaveCallers keeps wavescalar.go from regrowing re-exports
// nobody uses. Every exported top-level identifier must be named by a
// binary under cmd/, a program under examples/ or a README/DESIGN code
// fence; or be spelled in the signature of a facade declaration that is
// (so callers can name the types they are handed); or be a listed error
// sentinel. Code inside the module imports internal/* directly.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "wavescalar.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}

	// spells maps each exported facade name to the identifiers its
	// signature (a func's parameters and results) mentions.
	spells := map[string][]string{}
	idents := func(n ast.Node) (out []string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
			return true
		})
		return out
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				spells[d.Name.Name] = idents(d.Type)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						spells[s.Name.Name] = nil
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							spells[name.Name] = nil
						}
					}
				}
			}
		}
	}

	// called collects every wavescalar.X selector in cmd/ and examples/ and
	// in the fenced code of README.md and DESIGN.md.
	called := map[string]bool{}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "wavescalar" {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	selector := regexp.MustCompile(`\bwavescalar\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range strings.Split(string(text), "```") {
			if i%2 == 1 { // inside a fence
				for _, m := range selector.FindAllStringSubmatch(part, -1) {
					called[m[1]] = true
				}
			}
		}
	}

	// Survivors: called names, then whatever their signatures spell, to a
	// fixed point (NewServer keeps ServerOption, …).
	alive := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if _, exported := spells[name]; !exported || alive[name] {
			return
		}
		alive[name] = true
		for _, dep := range spells[name] {
			visit(dep)
		}
	}
	for name := range called {
		visit(name)
	}
	for name, returnedBy := range facadeSentinels {
		if _, ok := spells[name]; !ok {
			t.Errorf("facadeSentinels lists %s (returned by %s), which wavescalar.go no longer exports", name, returnedBy)
		}
		visit(name)
	}

	var orphans []string
	for name := range spells {
		if !alive[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("wavescalar.go exports %d names nothing outside it calls — delete them, or import internal/* from inside the module:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	if n := len(spells); n > 77 {
		t.Errorf("wavescalar.go exports %d identifiers, want at most 77", n)
	}
}
