package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cnprobase"
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
	out = run("inspect", snap)
	if !strings.Contains(out, "format version 4") || !strings.Contains(out, "kept candidates") {
		t.Errorf("inspect output: %s", out)
	}
}

// TestInspectPartsSumToFileSize reads inspect's table back: the file's
// parts add up to its size, and the evidence sub-sections to the
// evidence section's bytes — with and without the update substrate.
func TestInspectPartsSumToFileSize(t *testing.T) {
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 300
	w, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false
	res, err := cnprobase.Build(w.Corpus(), opts)
	if err != nil {
		t.Fatal(err)
	}
	bare := &cnprobase.Result{Taxonomy: res.Taxonomy, Mentions: res.Mentions}
	for name, r := range map[string]*cnprobase.Result{"built": res, "without evidence": bare} {
		var snap bytes.Buffer
		if err := cnprobase.SaveSnapshot(&snap, r); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "taxonomy.snap")
		if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := inspect(&out, path); err != nil {
			t.Fatalf("%s: inspect: %v", name, err)
		}
		_, table, ok := strings.Cut(out.String(), "\n\n")
		if !ok {
			t.Fatalf("%s: no table in:\n%s", name, out.String())
		}
		sums := map[bool]int{} // by indentation
		rows := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(table), "\n")[1:] {
			fields := strings.Fields(line)
			n, err := strconv.Atoi(fields[len(fields)-3])
			if err != nil {
				t.Fatalf("%s: row %q: %v", name, line, err)
			}
			label := strings.Join(fields[:len(fields)-3], " ")
			rows[label] = n
			if label != "total" {
				sums[strings.HasPrefix(line, " ")] += n
			}
		}
		if sums[false] != snap.Len() || rows["total"] != snap.Len() {
			t.Errorf("%s: parts sum to %d, total says %d, the file has %d bytes:\n%s", name, sums[false], rows["total"], snap.Len(), out.String())
		}
		if sums[true] != rows["evidence"] {
			t.Errorf("%s: evidence sub-sections sum to %d, the section has %d:\n%s", name, sums[true], rows["evidence"], out.String())
		}
	}
}
