package laps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goTestStep matches one `go test` invocation on a line of the workflow,
// with the directory a preceding `cd DIR &&` moved it to.
var goTestStep = regexp.MustCompile(`(?:cd (\S+) && )?go test ((?:'[^']*'|"[^"]*"|[^'"|&;])*)`)

// valueFlags are the go test flags a step passes a separate value to.
var valueFlags = map[string]bool{
	"-run": true, "-bench": true, "-fuzz": true, "-count": true, "-timeout": true,
	"-benchtime": true, "-fuzztime": true, "-list": true, "-cpu": true, "-parallel": true, "-tags": true,
}

// selectorKinds maps each selecting flag to the function prefixes it
// selects among.
var selectorKinds = map[string][]string{
	"-run":   {"Test", "Fuzz", "Example"},
	"-bench": {"Benchmark"},
	"-fuzz":  {"Fuzz"},
}

// TestCISelectorsNameRealTests reads the CI workflow and checks every
// `go test` step's -run, -bench and -fuzz patterns: each |-separated
// alternative must name a function of the kind the flag selects (a
// test, fuzz target or example for -run, a benchmark for -bench) in at
// least one package the step lists. Otherwise renaming or deleting a
// test silently empties the step.
func TestCISelectorsNameRealTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	names := map[string][]string{} // package dir -> test-file function names
	steps, alts := 0, 0
	for _, line := range strings.Split(text, "\n") {
		for _, m := range goTestStep.FindAllStringSubmatch(line, -1) {
			base := m[1]
			if base == "" {
				base = "."
			}
			var pkgs []string
			sel := map[string]string{}
			toks := shellFields(m[2])
			for i := 0; i < len(toks); i++ {
				tok := toks[i]
				if !strings.HasPrefix(tok, "-") {
					pkgs = append(pkgs, tok)
					continue
				}
				flag, val, inline := strings.Cut(tok, "=")
				if !inline && valueFlags[flag] && i+1 < len(toks) {
					i++
					val = toks[i]
				}
				if selectorKinds[flag] != nil {
					sel[flag] = val
				}
			}
			if len(sel) == 0 {
				continue
			}
			steps++
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			var dirs []string
			for _, p := range pkgs {
				dirs = append(dirs, packageDirs(t, filepath.Join(base, p))...)
			}
			for flag, pattern := range sel {
				for _, alt := range strings.Split(pattern, "|") {
					alt = strings.SplitN(alt, "/", 2)[0]
					if alt == "" || alt == "^$" || alt == "." {
						continue
					}
					alts++
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("ci.yml: %s %q: %v", flag, alt, err)
						continue
					}
					if !anyNamed(t, names, dirs, selectorKinds[flag], re) {
						t.Errorf("ci.yml selects %s '%s' under %s, which names no %s there",
							flag, alt, strings.Join(pkgs, " "), strings.Join(selectorKinds[flag], "/"))
					}
				}
			}
		}
	}
	if steps == 0 {
		t.Fatal("found no go test step with a selector in ci.yml")
	}
	t.Logf("%d go test steps with selectors, %d alternatives checked", steps, alts)
}

// anyNamed reports whether re matches a function with one of the given
// prefixes declared in the test files of any of dirs.
func anyNamed(t *testing.T, names map[string][]string, dirs, prefixes []string, re *regexp.Regexp) bool {
	for _, dir := range dirs {
		if _, ok := names[dir]; !ok {
			names[dir] = testFuncs(t, dir)
		}
		for _, name := range names[dir] {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) && re.MatchString(name) {
					return true
				}
			}
		}
	}
	return false
}

// packageDirs expands a go test package argument ("./x" or "./x/...")
// into the directories it names.
func packageDirs(t *testing.T, pkg string) []string {
	root, all := strings.CutSuffix(pkg, string(filepath.Separator)+"...")
	if !all {
		return []string{filepath.Clean(pkg)}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // another module: ./... stops here
			}
		}
		dirs = append(dirs, dir)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs lists the top-level functions declared in dir's test files,
// under every build tag.
func testFuncs(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				out = append(out, fd.Name.Name)
			}
		}
	}
	return out
}

// shellFields splits a command line into words, honouring single and
// double quotes.
func shellFields(s string) []string {
	var out []string
	var b strings.Builder
	quote, in := rune(0), false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			b.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case r == ' ' || r == '\t':
			if in {
				out = append(out, b.String())
				b.Reset()
				in = false
			}
		default:
			b.WriteRune(r)
			in = true
		}
	}
	if in {
		out = append(out, b.String())
	}
	return out
}
