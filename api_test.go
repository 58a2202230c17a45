package laps_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite api.txt from the package's exported surface")

// TestAPI renders package laps's exported surface — one line per
// constant, variable, function, type, exported struct field and method —
// and compares it with the committed api.txt. A change to the public
// surface must come with the matching change to api.txt:
// go test -run TestAPI -update-api rewrites it.
func TestAPI(t *testing.T) {
	got := apiSurface(t)
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := lineSet(got), lineSet(string(want))
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		if !wantLines[l] {
			t.Errorf("+ %s", l)
		}
	}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if !gotLines[l] {
			t.Errorf("- %s", l)
		}
	}
	t.Error("the exported surface differs from api.txt (+ new, - gone); if intended, run go test -run TestAPI -update-api")
}

func lineSet(s string) map[string]bool {
	m := map[string]bool{}
	for _, l := range strings.Split(s, "\n") {
		m[l] = true
	}
	return m
}

// apiSurface returns the sorted, newline-terminated surface lines of the
// package in the current directory.
func apiSurface(t *testing.T) string {
	t.Helper()
	pkg, err := build.Default.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range pkg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	p, err := doc.NewFromFiles(fset, files, "laps")
	if err != nil {
		t.Fatal(err)
	}
	node := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				spec := spec.(*ast.ValueSpec)
				for i, name := range spec.Names {
					if !name.IsExported() {
						continue
					}
					l := kind + " " + name.Name
					if spec.Type != nil {
						l += " " + node(spec.Type)
					}
					if i < len(spec.Values) {
						l += " = " + node(spec.Values[i])
					}
					lines = append(lines, l)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			d := *f.Decl
			d.Doc, d.Body = nil, nil
			kind := "func "
			if d.Recv != nil {
				kind = "method "
			}
			lines = append(lines, kind+strings.TrimPrefix(node(&d), "func "))
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs(p.Funcs)
	for _, typ := range p.Types {
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			lines = append(lines, "type "+node(&ast.TypeSpec{Name: spec.Name, Assign: spec.Assign, Type: spec.Type}))
			continue
		}
		lines = append(lines, "type "+typ.Name+" struct")
		for _, field := range st.Fields.List {
			if len(field.Names) == 0 {
				lines = append(lines, "embed "+typ.Name+" "+node(field.Type))
			}
			for _, name := range field.Names {
				if name.IsExported() {
					lines = append(lines, "field "+typ.Name+"."+name.Name+" "+node(field.Type))
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
