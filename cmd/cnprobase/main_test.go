package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cnprobase"
)

// TestCLIRoundTrip exercises gen → build → query → inspect end to end
// through the compiled binary, over the one file build writes.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(t.TempDir(), "cnprobase-cli")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	corpus := filepath.Join(dir, "corpus.jsonl")
	snap := filepath.Join(dir, "taxonomy.snap")

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
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
	// -save defaults to taxonomy.snap in the working directory.
	out = run("build", "-in", corpus, "-no-neural", "-workers", "8")
	if !strings.Contains(out, "isA relations") {
		t.Errorf("build output: %s", out)
	}
	if !strings.Contains(out, "(8 workers)") {
		t.Errorf("build output missing concurrency settings: %s", out)
	}
	if !strings.Contains(out, "wrote snapshot") {
		t.Errorf("build output missing snapshot line: %s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if strings.Join(files, " ") != "corpus.jsonl taxonomy.snap" {
		t.Errorf("build left %v, want only the corpus and the snapshot", files)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 || fi.Mode().Perm() != 0o644 {
		t.Errorf("snapshot file %s: err=%v, info=%v, want a non-empty file of mode 0644", snap, err, fi)
	}

	out = run("inspect", snap)
	if !strings.Contains(out, "format version 6") || !strings.Contains(out, "kept candidates") {
		t.Errorf("inspect output: %s", out)
	}
	var pages, entities, concepts, isA int
	_, meta, _ := strings.Cut(out, "meta: ")
	if _, err := fmt.Sscanf(meta, "%d pages; %d entities, %d concepts, %d isA", &pages, &entities, &concepts, &isA); err != nil {
		t.Fatalf("inspect meta line: %v\n%s", err, out)
	}
	out = run("query", "-load", snap)
	if want := fmt.Sprintf("entities=%d concepts=%d isA=%d\n", entities, concepts, isA); out != want {
		t.Errorf("query stats %q, inspect's meta line says %q", out, want)
	}
	out = run("query", "-load", snap, "-hyponyms", "人物", "-limit", "3")
	if strings.TrimSpace(out) == "" {
		t.Error("query -hyponyms returned nothing")
	}

	// An infobox alias is no node: query resolves it through the
	// mention table to the page it names.
	f, err := os.Open(corpus)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cnprobase.ReadCorpus(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	alias, id := "", ""
	for i := range c.Pages {
		for _, tr := range c.Pages[i].Infobox {
			if tr.Predicate == "别名" && tr.Object != "" && alias == "" {
				alias, id = tr.Object, c.Pages[i].ID()
			}
		}
	}
	if alias == "" {
		t.Fatal("the corpus has no infobox alias")
	}
	if out = run("query", "-load", snap, "-hypernyms", alias); !strings.Contains(out, id+" → ") {
		t.Errorf("query -hypernyms %s (an alias of %s) printed %q", alias, id, out)
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
	bare := &cnprobase.Result{Taxonomy: res.Taxonomy}
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
