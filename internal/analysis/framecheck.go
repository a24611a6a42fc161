package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Framecheck enforces the wire-protocol completeness invariant on any
// package that declares a `FrameKind` type (the repo's transport package,
// or a fixture standing in for it): every FrameKind constant must appear
//
//   - in a case clause of the encode switch (the AppendFrame function),
//   - in a case clause of the decode switch (the parseFrame function), and
//   - in at least one _test.go file of the package directory — the
//     round-trip corpus that pins the encoding as canonical.
//
// The test-file arm reads the package directory's *_test.go sources
// directly (syntax only). The vet unit holds the package together with its
// in-package test files, but external `package <name>_test` files form a
// separate unit — and most of transport's round-trip tests live there.
//
// The historical bug class: PR 7 added FrameJobDone's retirement path and
// each of PRs 4-7 extended the frame set; a kind added to the constants but
// missed in parseFrame ships as ErrMalformedFrame at the first real use —
// on a 256-core run, not in review.
var Framecheck = &Analyzer{
	Name: "framecheck",
	Doc:  "every FrameKind constant must be encoded, decoded, and round-trip tested",
	Run:  runFramecheck,
}

const (
	frameKindType = "FrameKind"
	encodeFunc    = "AppendFrame"
	decodeFunc    = "parseFrame"
)

func runFramecheck(pass *Pass) error {
	kindType := pass.Pkg.Scope().Lookup(frameKindType)
	if kindType == nil {
		return nil
	}
	tn, ok := kindType.(*types.TypeName)
	if !ok {
		return nil
	}

	// The FrameKind constants, in declaration order.
	type kind struct {
		name string
		pos  token.Pos
	}
	var kinds []kind
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && c.Type() == tn.Type() {
			kinds = append(kinds, kind{name, c.Pos()})
		}
	}
	if len(kinds) == 0 {
		return nil
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].pos < kinds[j].pos })

	encCases := switchCaseIdents(pass, encodeFunc)
	decCases := switchCaseIdents(pass, decodeFunc)
	tested, testFiles, err := testFileIdents(pass, tn.Pos())
	if err != nil {
		return err
	}

	for _, k := range kinds {
		if encCases != nil && !encCases[k.name] {
			pass.Reportf(k.pos, "%s is not handled by any case of the %s encode switch", k.name, encodeFunc)
		}
		if decCases != nil && !decCases[k.name] {
			pass.Reportf(k.pos, "%s is not handled by any case of the %s decode switch", k.name, decodeFunc)
		}
		if testFiles > 0 && !tested[k.name] {
			pass.Reportf(k.pos, "%s appears in no _test.go file of its package; extend the frame round-trip test", k.name)
		}
	}
	if encCases == nil {
		pass.Reportf(tn.Pos(), "package declares %s but no %s encode switch", frameKindType, encodeFunc)
	}
	if decCases == nil {
		pass.Reportf(tn.Pos(), "package declares %s but no %s decode switch", frameKindType, decodeFunc)
	}
	if testFiles == 0 {
		pass.Reportf(tn.Pos(), "package declares %s but its directory has no _test.go round-trip coverage", frameKindType)
	}
	return nil
}

// switchCaseIdents returns the set of identifier names appearing in case
// clauses (of switch statements) within the named package function, or nil
// if the function does not exist.
func switchCaseIdents(pass *Pass, fnName string) map[string]bool {
	var body *ast.BlockStmt
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == fnName {
				body = fd.Body
			}
		}
	}
	if body == nil {
		return nil
	}
	cases := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					cases[id.Name] = true
				}
				return true
			})
		}
		return true
	})
	return cases
}

// testFileIdents parses (syntax only) every *_test.go file in the
// directory of the file at pos and returns the set of identifiers they
// use, plus how many test files were found.
func testFileIdents(pass *Pass, pos token.Pos) (map[string]bool, int, error) {
	dir := filepath.Dir(pass.Fset.Position(pos).Filename)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	idents := make(map[string]bool)
	files := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name] = true
			}
			return true
		})
	}
	return idents, files, nil
}
