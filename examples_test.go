package laps_test

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// exampleHeads is the first line each main under examples/ prints. The
// examples are seeded, so the line is fixed; a new example needs a row.
var exampleHeads = map[string]string{
	"elephants":    "annex   detected  true-pos  false-pos   FPR    recall",
	"multiservice": "scheduler   drop%    cold-cache%   out-of-order%",
	"pcapreplay":   "capture: 120000 packets, 8308188 bytes of pcap",
	"quickstart":   "scheduler   drop%    out-of-order  migrations  mean-latency",
	"reordering":   "migration-period   migrations   out-of-order   ooo-per-migration",
}

// TestExamplesRun builds every main under examples/ and runs it the way
// README tells a reader to: each must exit 0 and print its first line.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range mains {
		names = append(names, filepath.Base(filepath.Dir(m)))
	}
	sort.Strings(names)
	var want []string
	for name := range exampleHeads {
		want = append(want, name)
	}
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("examples/ holds %v, exampleHeads names %v", names, want)
	}

	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			first, _, _ := bufio.NewReader(bytes.NewReader(out)).ReadLine()
			if got := string(first); got != exampleHeads[name] {
				t.Fatalf("%s printed %q first, want %q", name, got, exampleHeads[name])
			}
		})
	}
}
