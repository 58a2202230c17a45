package laps_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fieldAllow lists the struct fields under internal/ that non-test code
// writes and never reads, each with the reason it stays. A field outside
// this list that only ever receives values is dead state: delete it
// together with its writes.
var fieldAllow = allowFields(map[string][]string{
	// Result fields of types package laps re-exports (api.txt): the
	// module only fills them, library users read them.
	"public: laps.DetectorStats":  {"afd.Stats.Invalidated"},
	"public: laps.SchedulerStats": {"core.Stats.CoreDenied", "core.Stats.SurplusUnmarks"},
	"public: laps.CoreReport":     {"npsim.CoreReport.ID", "npsim.CoreReport.Processed"},
	"public: laps.Metrics": {"npsim.Metrics.BusyTime", "npsim.Metrics.EstimatedOOO", "npsim.Metrics.FMPenalties",
		"npsim.Metrics.FlowBudgetHits", "npsim.Metrics.PerSvcDone", "npsim.Metrics.PerSvcDropped", "npsim.Metrics.PerSvcInjected"},
	"public: laps.Packet, read by OnDepart hooks": {"packet.Packet.ColdMiss"},
	"public: laps.ReorderStats": {"rob.Stats.Evicted", "rob.Stats.Passed", "rob.Stats.Pushed",
		"rob.Stats.Repaired", "rob.Stats.TimedOut"},
	"public: laps.EngineStats":  {"runtime.Result.Series"},
	"public: laps.WorkerReport": {"runtime.WorkerReport.OutOfOrder"},
	// Read outside Go.
	"kernel ABI: recvmmsg reads each header through the vector": {"ingress.mmsghdr.hdr"},
	"sink that keeps worker.consume's pre-touch loads alive":    {"runtime.worker.touched"},
	// Dead, but deleting either moves the runtime's hot path by half a
	// cache line (docs/PERFORMANCE.md, "Code placement"): ServiceDef's
	// size is compiled into runtime.newPlane and worker.consume, and
	// NewGroup is linked just before internal/runtime.
	"waits for a change that re-measures runtime placement": {"npsim.ServiceDef.Name", "ingress.Group.reuse"},
})

// allowFields inverts a reason → fields listing into fieldAllow's form.
func allowFields(byReason map[string][]string) map[string]string {
	out := map[string]string{}
	for reason, fields := range byReason {
		for _, f := range fields {
			out[f] = reason
		}
	}
	return out
}

// checkFields fails on each struct field declared under internal/ that
// non-test code of the module or of cmd/lapsbench writes and none reads,
// unless fieldAllow names it, and on each fieldAllow entry that is no
// longer such a field.
func checkFields(t *testing.T) {
	t.Helper()
	found := writeOnlyFields(t)
	var orphans []string
	listed := map[string]bool{}
	for _, f := range found {
		listed[f.name] = true
		if fieldAllow[f.name] == "" {
			orphans = append(orphans, f.name+" ("+f.pos+")")
		}
	}
	if len(orphans) > 0 {
		t.Errorf("%d struct fields under internal/ are written by non-test code and read by none, and not in fieldAllow:\n\t%s",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
	for name := range fieldAllow {
		if !listed[name] {
			t.Errorf("fieldAllow names %s, which is not a write-only field: drop the entry", name)
		}
	}
	t.Logf("%d write-only struct fields under internal/, %d allowlisted", len(found), len(fieldAllow))
}

type fieldUse struct {
	name, pos     string
	writes, reads int
}

// writeOnlyFields type-checks every non-test package of the module and
// cmd/lapsbench from source (the standard library through go/importer's
// source importer) and returns the fields declared under internal/ that
// some of that code writes and none of it reads.
//
// A write is an assignment or increment whose left side is the field
// (or an element of it, when the field is an array or a struct value),
// a composite-literal entry for it, or a call statement of a
// pointer-receiver method on the field stored in place, such as a
// histogram's Add (sync's types excepted: locking a mutex uses it).
// Every other use is a read: a method call whose result is used, so an
// atomic counter that is loaded somewhere counts as read, and so does
// taking the field's address.
func writeOnlyFields(t *testing.T) []fieldUse {
	t.Helper()
	l := &srcLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		path := "laps" // cmd/lapsbench, its own module, is laps/cmd/lapsbench
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		if _, err := l.load(path); err != nil {
			if _, ok := err.(*build.NoGoError); !ok {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	uses := map[*types.Var]*fieldUse{}
	for _, f := range l.internal {
		nameFields(l, f, uses)
	}
	for _, f := range l.files {
		countUses(l.info, f, uses)
	}
	var out []fieldUse
	for _, u := range uses {
		if u.writes > 0 && u.reads == 0 {
			out = append(out, *u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// srcLoader type-checks the module's packages itself, so that every
// package sees the same field objects and one types.Info records them
// all; other imports go to the standard library's source importer.
type srcLoader struct {
	fset     *token.FileSet
	std      types.ImporterFrom
	pkgs     map[string]*types.Package
	info     *types.Info
	files    []*ast.File // every loaded non-test file
	internal []*ast.File // the files under internal/
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *srcLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "laps" || strings.HasPrefix(path, "laps/") {
		return l.load(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *srcLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "laps"), "/"))
	if dir == "" {
		dir = "."
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	if strings.HasPrefix(path, "laps/internal/") {
		l.internal = append(l.internal, files...)
	}
	return p, nil
}

// nameFields records every named field that file f declares, keyed by
// its object and named "pkg.Type.field" (nested struct types extend the
// path). Embedded fields are left out, being read by promotion, and so
// are fields with a json tag, which encoding/json reads.
func nameFields(l *srcLoader, f *ast.File, uses map[*types.Var]*fieldUse) {
	pkg := strings.TrimPrefix(l.fset.File(f.Pos()).Name(), "internal"+string(filepath.Separator))
	pkg = filepath.ToSlash(filepath.Dir(pkg))
	named := map[*ast.StructType]bool{}
	var walk func(prefix string, st *ast.StructType)
	walk = func(prefix string, st *ast.StructType) {
		named[st] = true
		for _, fld := range st.Fields.List {
			if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
				continue // encoding/json reads it
			}
			for _, id := range fld.Names {
				name := prefix + "." + id.Name
				if v, ok := l.info.Defs[id].(*types.Var); ok {
					uses[v] = &fieldUse{name: name, pos: l.fset.Position(id.Pos()).String()}
				}
				if inner, ok := fld.Type.(*ast.StructType); ok {
					walk(name, inner)
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				walk(pkg+"."+ts.Name.Name, st)
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok && !named[st] {
			p := l.fset.Position(st.Pos())
			walk(fmt.Sprintf("%s.struct@%s:%d", pkg, filepath.Base(p.Filename), p.Line), st)
			return false
		}
		return true
	})
}

// countUses adds file f's writes and reads of the fields in uses.
func countUses(info *types.Info, f *ast.File, uses map[*types.Var]*fieldUse) {
	field := func(obj types.Object) *fieldUse {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return uses[v.Origin()]
		}
		return nil
	}
	written := map[*ast.SelectorExpr]bool{}
	// markWritten marks the field selections an assignment to e writes:
	// e itself, and the field holding e when e is an element of an array
	// or struct value stored in place.
	var markWritten func(e ast.Expr)
	markWritten = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				written[x] = true
				if inPlace(info.TypeOf(x.X)) {
					markWritten(x.X)
				}
			}
		case *ast.IndexExpr:
			if inPlace(info.TypeOf(x.X)) {
				markWritten(x.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, lhs := range x.Lhs {
					markWritten(lhs)
				}
			}
		case *ast.IncDecStmt:
			markWritten(x.X)
		case *ast.ExprStmt:
			if sel := mutatorCall(info, x.X); sel != nil {
				markWritten(sel)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem() // an elided &T in a []*T literal
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if u := field(info.Uses[kv.Key.(*ast.Ident)]); u != nil {
						u.writes++
					}
				} else if u := field(st.Field(i)); u != nil {
					u.writes++
				}
			}
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				if u := field(s.Obj()); u != nil {
					if written[x] {
						u.writes++
					} else {
						u.reads++
					}
				}
			}
		}
		return true
	})
}

// inPlace reports whether writing into a value of type t (an element or
// a field of it) writes the variable that holds it: arrays and structs
// are stored in place, while slices, maps and pointers are read to
// reach what they refer to.
func inPlace(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Array, *types.Struct:
		return true
	}
	return false
}

// mutatorCall returns the field selection f when e is a call f.M(...) of
// a pointer-receiver method on a field f stored in place, whose type is
// not from package sync; a call statement of that form writes f.
func mutatorCall(info *types.Info, e ast.Expr) *ast.SelectorExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	m, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	ms := info.Selections[m]
	if ms == nil || ms.Kind() != types.MethodVal {
		return nil
	}
	if _, ptr := ms.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptr {
		return nil
	}
	f, ok := ast.Unparen(m.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if fs := info.Selections[f]; fs == nil || fs.Kind() != types.FieldVal {
		return nil
	}
	named, ok := types.Unalias(info.TypeOf(f)).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() == "sync" {
		return nil
	}
	if _, iface := named.Underlying().(*types.Interface); iface {
		return nil
	}
	return f
}
