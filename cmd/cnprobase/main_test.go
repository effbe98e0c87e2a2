package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRoundTrip exercises gen → build → query end to end through
// the compiled binary.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cnprobase-cli")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	corpus := filepath.Join(dir, "corpus.jsonl")
	tax := filepath.Join(dir, "taxonomy.json")
	snap := filepath.Join(dir, "taxonomy.snap")

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := run("gen", "-entities", "400", "-out", corpus)
	if !strings.Contains(out, "pages") {
		t.Errorf("gen output: %s", out)
	}
	out = run("build", "-in", corpus, "-out", tax, "-save", snap, "-no-neural", "-workers", "8")
	if !strings.Contains(out, "isA relations") {
		t.Errorf("build output: %s", out)
	}
	if !strings.Contains(out, "(8 workers)") {
		t.Errorf("build output missing concurrency settings: %s", out)
	}
	if !strings.Contains(out, "wrote snapshot") {
		t.Errorf("build output missing snapshot line: %s", out)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Errorf("snapshot file %s: err=%v, size=%v", snap, err, fi)
	}
	out = run("query", "-tax", tax)
	if !strings.Contains(out, "entities=") {
		t.Errorf("query output: %s", out)
	}
	out = run("query", "-tax", tax, "-hyponyms", "人物", "-limit", "3")
	if strings.TrimSpace(out) == "" {
		t.Error("query -hyponyms returned nothing")
	}
}
