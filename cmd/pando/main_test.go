package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pando/internal/apps"
)

// freePorts returns a port p such that p and p+1 (the CLI's HTTP and data
// ports) were both free a moment ago.
func freePorts(t *testing.T) int {
	t.Helper()
	for try := 0; try < 20; try++ {
		ln, err := net.Listen("tcp", ":0")
		if err != nil {
			t.Fatal(err)
		}
		p := ln.Addr().(*net.TCPAddr).Port
		next, err := net.Listen("tcp", fmt.Sprintf(":%d", p+1))
		ln.Close()
		if err == nil {
			next.Close()
			return p
		}
	}
	t.Fatal("no two adjacent free ports")
	return 0
}

// runCLI runs the command in-process on a fresh pair of ports and returns
// its standard output and standard error.
func runCLI(t *testing.T, stdin string, args ...string) (stdout, stderr string) {
	t.Helper()
	args = append(args[:1:1], append([]string{"-port", strconv.Itoa(freePorts(t))}, args[1:]...)...)
	var out, errOut bytes.Buffer
	if err := run(args, strings.NewReader(stdin), &out, &errOut); err != nil {
		t.Fatalf("pando %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// checkCollatz checks that stdout holds the Collatz results of 1..n, one
// JSON line each, in input order.
func checkCollatz(t *testing.T, stdout string, n int) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("got %d output lines, want %d:\n%s", len(lines), n, stdout)
	}
	for i, line := range lines {
		var r apps.CollatzResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		want, err := apps.CollatzSteps(strconv.Itoa(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if r != want {
			t.Fatalf("line %d = %+v, want %+v (ordered)", i, r, want)
		}
	}
}

func inputs(n int) []string {
	vs := make([]string, n)
	for i := range vs {
		vs[i] = strconv.Itoa(i + 1)
	}
	return vs
}

// TestCLIArgsLocalWorkers: inputs from the command line, two in-process
// workers, results in input order.
func TestCLIArgsLocalWorkers(t *testing.T) {
	out, _ := runCLI(t, "", append([]string{"collatz", "-local", "2"}, inputs(10)...)...)
	checkCollatz(t, out, 10)
}

// TestCLICheckpointResume: a second run over the same checkpoint says how
// many results it resumes and prints the same output.
func TestCLICheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.journal")
	args := append([]string{"collatz", "-local", "2", "-checkpoint", ckpt}, inputs(12)...)
	first, stderr := runCLI(t, "", args...)
	checkCollatz(t, first, 12)
	if strings.Contains(stderr, "Resuming") {
		t.Fatalf("a fresh checkpoint printed a resume notice:\n%s", stderr)
	}
	second, stderr := runCLI(t, "", args...)
	if want := fmt.Sprintf("Resuming checkpoint %s: 12 results already completed", ckpt); !strings.Contains(stderr, want) {
		t.Fatalf("second run's stderr lacks %q:\n%s", want, stderr)
	}
	if second != first {
		t.Fatalf("resumed output differs:\n%s\nwant:\n%s", second, first)
	}
}

// TestCLIWindowSpill: inputs on stdin under a four-result memory bound
// that spills to a file; the output is still every result in order.
func TestCLIWindowSpill(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "spill.seg")
	out, _ := runCLI(t, strings.Join(inputs(200), "\n")+"\n",
		"collatz", "-stdin", "-local", "2", "-window", "4", "-spill", spill)
	checkCollatz(t, out, 200)
}
