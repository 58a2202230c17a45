package laps_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the non-test functions under internal/ that no shipped
// binary links, each with the test, example or oracle that keeps it. A
// function outside this list that no binary reaches is dead code: delete
// it, or, when a test in another package needs it as an observer, add it
// here naming that test.
var reachAllow = map[string]string{
	// Test oracles: slow, obviously correct references the fast paths are
	// checked against.
	"crc.Reference":          "oracle: crc TestTableMatchesReference, TestFlowHashMatchesChecksumOfEncoding",
	"packet.PoisonFreeLists": "oracle: TestSimulateRecyclingDoesNotChangeResults, exp TestRecyclingDoesNotChangeResults, npsim TestFreeListOwnership",
	"trace.verifyIPChecksum": "oracle: trace TestPcapValidIPChecksums",

	// Documented workflows of package laps.
	"afd.(*Detector).AFCLen":       "ExampleNewDetector",
	"afd.(*Detector).IsAggressive": "ExampleNewDetector",
	"stats.(*Series).Col":          "ExampleSimulate_telemetry",
	"traffic.(*Churn).Name":        "trace.Source of laps.NewChurnTrace and laps.ChurnTrace (docs/SCALE.md)",
	"traffic.(*Churn).Next":        "trace.Source of laps.NewChurnTrace and laps.ChurnTrace (docs/SCALE.md)",

	// Observers another package's tests read, with no reachable
	// equivalent.
	"flowtab.(*Table).Slots":            "runtime TestFenceTableBoundedByInFlight: the fence table never grows",
	"npsim.(*ReorderTracker).ScaledOOO": "exp TestScaleConformanceScenarios: the witness's scaled estimate",
	"npsim.InControlGroup":              "runtime TestUnfencedMigrationIsWitnessed: hot flows outside the control group",
	"sim.(*Engine).RunUntil":            "exp TestSimulateZeroAllocSteadyState, npsim TestCoreReportsAccounting, rob TestFlushReleasesEverything",
}

// TestReach builds every main of the module and cmd/lapsbench with the
// linker's dependency dump (go build -gcflags=all=-l -ldflags=-dumpdep)
// and fails on each non-test function under internal/ that none of them
// links and reachAllow does not name. Inlining is off so that a function
// whose every call is inlined still shows up as linked.
func TestReach(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the allowlist is kept for the linux build's files")
	}
	if testing.Short() {
		t.Skip("builds every binary")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	tmp := t.TempDir()
	run := func(dir string, env []string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(goTool, args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), env...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return out
	}
	mains := strings.Fields(string(run(".", nil, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")))
	if len(mains) == 0 {
		t.Fatal("go list found no main packages")
	}
	dump := func(dir string, env []string, pkgs ...string) []byte {
		args := append([]string{"build", "-o", tmp + string(filepath.Separator), "-gcflags=all=-l", "-ldflags=-dumpdep"}, pkgs...)
		return run(dir, env, args...)
	}
	reached := linked(dump(".", nil, mains...))
	for sym := range linked(dump(filepath.Join("cmd", "lapsbench"), []string{"GOWORK=off"}, ".")) {
		reached[sym] = true
	}

	funcs := internalFuncs(t)
	var dead []string
	for _, fn := range funcs {
		if !reached[fn] && reachAllow[fn] == "" {
			dead = append(dead, fn)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d non-test functions under internal/ are linked by no binary and not in reachAllow:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	declared := map[string]bool{}
	for _, fn := range funcs {
		declared[fn] = true
	}
	for fn := range reachAllow {
		switch {
		case !declared[fn]:
			t.Errorf("reachAllow names %s, which is not a non-test function under internal/", fn)
		case reached[fn]:
			t.Errorf("reachAllow names %s, which a binary links: drop the entry", fn)
		}
	}
	t.Logf("%d mains + cmd/lapsbench; %d non-test functions under internal/, %d allowlisted", len(mains), len(funcs), len(reachAllow))
}

// linked reads a -dumpdep listing ("from -> to" per newly marked symbol)
// and returns every laps/internal symbol it marks, keyed as internalFuncs
// names them: "pkg.F", "pkg.T.M" or "pkg.(*T).M", with the type
// arguments of generic functions and receivers stripped.
func linked(out []byte) map[string]bool {
	const prefix = "laps/internal/"
	reached := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		_, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok || !strings.HasPrefix(to, prefix) {
			continue
		}
		if i := strings.Index(to, " <"); i >= 0 && strings.HasSuffix(to, ">") {
			to = to[:i] // <UsedInIface>, <ReflectMethod> flags
		}
		reached[stripTypeArgs(strings.TrimPrefix(to, prefix))] = true
	}
	return reached
}

// stripTypeArgs drops every bracketed list, nested ones included:
// "flowtab.(*Table[go.shape.struct { ... }]).Ref" -> "flowtab.(*Table).Ref".
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// internalFuncs lists every function and method declared in the non-test
// files of internal/ that the current platform builds, named as linked
// keys them.
func internalFuncs(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir("internal", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(dir, "internal"+string(filepath.Separator)))
		fset := token.NewFileSet()
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				out = append(out, rel+"."+funcName(fd))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}
