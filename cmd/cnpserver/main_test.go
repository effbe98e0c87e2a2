package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cnprobase"
)

// buildServerBinary compiles cnpserver once per test binary.
var (
	binOnce sync.Once
	binPath string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

func serverBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cnpserver-test-*")
		if err != nil {
			binErr = err
			return
		}
		binPath = filepath.Join(dir, "cnpserver")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// writeSnapshot builds a small world and saves its serving state,
// returning the snapshot path and the build result for comparison.
func writeSnapshot(t *testing.T) (string, *cnprobase.Result) {
	t.Helper()
	wcfg := cnprobase.DefaultWorldConfig()
	wcfg.Entities = 300
	w, err := cnprobase.GenerateWorld(wcfg)
	if err != nil {
		t.Fatalf("GenerateWorld: %v", err)
	}
	opts := cnprobase.DefaultOptions()
	opts.EnableNeural = false
	res, err := cnprobase.Build(w.Corpus(), opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	path := filepath.Join(t.TempDir(), "taxonomy.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create snapshot: %v", err)
	}
	if err := cnprobase.SaveSnapshot(f, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close snapshot: %v", err)
	}
	return path, res
}

// startServer launches the binary, waits for the "serving ... on"
// line, and returns the base URL plus a shutdown func.
func startServer(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(serverBinary(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	stop := func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); strings.HasPrefix(line, "serving ") && i >= 0 {
				addrCh <- strings.TrimSpace(line[i+4:])
				return
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			stop()
			t.Fatal("server exited before announcing its address")
		}
		return "http://" + addr, stop
	case <-time.After(30 * time.Second):
		stop()
		t.Fatal("timed out waiting for the server to announce its address")
	}
	panic("unreachable")
}

// TestServeLoadedSnapshot is the -load happy path: the server starts
// from a snapshot without running the pipeline and answers the three
// APIs exactly like the build it was saved from.
func TestServeLoadedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, res := writeSnapshot(t)
	base, stop := startServer(t, "-load", snap)
	defer stop()

	// Pick an entity that has hypernyms so the comparison is not
	// vacuous.
	var entity string
	built := res.Freeze()
	for _, n := range built.Nodes() {
		if len(built.Hypernyms(n)) > 0 && len(built.Lookup(n)) > 0 {
			entity = n
			break
		}
	}
	if entity == "" {
		t.Fatal("no entity with hypernyms in the built world")
	}

	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}

	var concept struct {
		Hypernyms []string `json:"hypernyms"`
	}
	get("/api/getConcept?entity="+entity, &concept)
	if want := fmt.Sprint(built.Hypernyms(entity)); fmt.Sprint(concept.Hypernyms) != want {
		t.Fatalf("getConcept(%q) = %v, want %v", entity, concept.Hypernyms, want)
	}

	var men struct {
		Entities []string `json:"entities"`
	}
	get("/api/men2ent?mention="+entity, &men)
	if want := fmt.Sprint(res.Freeze().Lookup(entity)); fmt.Sprint(men.Entities) != want {
		t.Errorf("men2ent(%q) = %v, want %v", entity, men.Entities, want)
	}

	hyper := concept.Hypernyms[0]
	var ent struct {
		Hyponyms []string `json:"hyponyms"`
	}
	get("/api/getEntity?concept="+hyper, &ent)
	if want := fmt.Sprint(built.Hyponyms(hyper, 0)); fmt.Sprint(ent.Hyponyms) != want {
		t.Errorf("getEntity(%q) = %v, want %v", hyper, ent.Hyponyms, want)
	}
}

// syncBuffer is a mutex-guarded buffer for capturing a child
// process's stderr while it runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServerCapture is startServer with stderr captured instead of
// inherited, for tests asserting on log output.
func startServerCapture(t *testing.T, stderr *syncBuffer, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(serverBinary(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); strings.HasPrefix(line, "serving ") && i >= 0 {
				addrCh <- strings.TrimSpace(line[i+4:])
				return
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			t.Fatalf("server exited before announcing its address; stderr:\n%s", stderr.String())
		}
		return "http://" + addr, cmd
	case <-deadline:
		t.Fatal("timed out waiting for the server to announce its address")
	}
	panic("unreachable")
}

// TestSighupHotReload drives the zero-downtime reload path: overwrite
// the snapshot file with an extended taxonomy, send SIGHUP, and watch
// the new edge become visible without restarting the process.
func TestSighupHotReload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, res := writeSnapshot(t)
	var stderr syncBuffer
	base, cmd := startServerCapture(t, &stderr, "-load", snap)

	get := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var ent struct {
		Hyponyms []string `json:"hyponyms"`
	}
	get("/api/getEntity?concept=热更新概念", &ent)
	if len(ent.Hyponyms) != 0 {
		t.Fatalf("new concept visible before reload: %v", ent.Hyponyms)
	}

	// Extend the taxonomy, overwrite the snapshot in place, reload.
	if err := res.Taxonomy.AddIsA("热更新实体（测试）", "热更新概念", cnprobase.SourceTag); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := cnprobase.SaveSnapshot(f, res); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}

	defer func() {
		if t.Failed() {
			t.Logf("stderr:\n%s", stderr.String())
		}
	}()
	eventually(t, 20*time.Second, "the new edge being served after SIGHUP", func() bool {
		get("/api/getEntity?concept=热更新概念", &ent)
		return len(ent.Hyponyms) == 1 && ent.Hyponyms[0] == "热更新实体（测试）"
	})
	// The swap is visible over HTTP before the server writes its log
	// line, so the line is waited for too rather than read once.
	eventually(t, 20*time.Second, "the reload being logged", func() bool {
		return strings.Contains(stderr.String(), "view swapped")
	})
}

// startServerWithIngest launches the binary with an ingestion listener
// and waits for both the serving and the ingesting address lines.
func startServerWithIngest(t *testing.T, stderr *syncBuffer, args ...string) (apiBase, ingestBase string, proc *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(serverBinary(t),
		append([]string{"-addr", "127.0.0.1:0", "-ingest", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	type addrs struct{ api, ingest string }
	addrCh := make(chan addrs, 1)
	go func() {
		var got addrs
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); i >= 0 {
				switch {
				case strings.HasPrefix(line, "serving "):
					got.api = strings.TrimSpace(line[i+4:])
				case strings.HasPrefix(line, "ingesting "):
					got.ingest = strings.TrimSpace(line[i+4:])
				}
			}
			if got.api != "" && got.ingest != "" {
				addrCh <- got
				return
			}
		}
		close(addrCh)
	}()
	select {
	case got, ok := <-addrCh:
		if !ok {
			t.Fatalf("server exited before announcing its addresses; stderr:\n%s", stderr.String())
		}
		return "http://" + got.api, "http://" + got.ingest, cmd
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the server to announce its addresses")
	}
	panic("unreachable")
}

// TestIngestEndpointServesNewEdges drives continuous ingestion over
// HTTP: a running server (started from an evidence-carrying snapshot)
// accepts a JSONL crawl batch on the -ingest listener and serves the
// new edges on the API listener without restarting — the ingestion
// counterpart of the SIGHUP hot-reload test.
func TestIngestEndpointServesNewEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, res := writeSnapshot(t)
	var stderr syncBuffer
	apiBase, ingestBase, _ := startServerWithIngest(t, &stderr, "-load", snap)

	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(apiBase + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
	}

	// An existing, surviving concept keeps the delta's tag candidate
	// through verification.
	concept := res.Names()[res.Kept[0].Hyper]
	const newTitle = "热更新摄取实体"
	var ent struct {
		Hypernyms []string `json:"hypernyms"`
	}
	get("/api/getConcept?entity="+newTitle, &ent)
	if len(ent.Hypernyms) != 0 {
		t.Fatalf("new entity visible before ingestion: %v", ent.Hypernyms)
	}

	page, err := json.Marshal(map[string]any{"title": newTitle, "tags": []string{concept}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ingestBase+"/ingest", "application/x-ndjson", bytes.NewReader(append(page, '\n')))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d: %s\nstderr:\n%s", resp.StatusCode, body, stderr.String())
	}
	var rep struct {
		Pages int `json:"pages"`
	}
	if err := json.Unmarshal(body, &rep); err != nil || rep.Pages != 1 {
		t.Fatalf("ingest response %s (err %v), want pages=1", body, err)
	}

	// The swap happens before the ingest response returns, so the API
	// serves the new edge immediately — no restart, no downtime.
	get("/api/getConcept?entity="+newTitle, &ent)
	found := false
	for _, h := range ent.Hypernyms {
		if h == concept {
			found = true
		}
	}
	if !found {
		t.Fatalf("getConcept(%q) = %v after ingest, want %q; stderr:\n%s", newTitle, ent.Hypernyms, concept, stderr.String())
	}
	var men struct {
		Entities []string `json:"entities"`
	}
	get("/api/men2ent?mention="+newTitle, &men)
	if len(men.Entities) == 0 {
		t.Errorf("men2ent(%q) empty after ingest", newTitle)
	}
}

// copyFile duplicates a file into dir under name.
func copyFile(t *testing.T, src, dir, name string) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}
	dst := filepath.Join(dir, name)
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", dst, err)
	}
	return dst
}

// postPage ingests one single-page batch and returns the HTTP status.
func postPage(t *testing.T, ingestBase, title, concept string) int {
	t.Helper()
	page, err := json.Marshal(map[string]any{"title": title, "tags": []string{concept}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ingestBase+"/ingest", "application/x-ndjson", bytes.NewReader(append(page, '\n')))
	if err != nil {
		t.Fatalf("POST /ingest %q: %v", title, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestCrashRecoveryEquivalence is the end-to-end durability pin: drive
// K batches into a WAL-backed server, SIGKILL it mid-stream (after the
// second acknowledgment), restart it from the same snapshot + WAL,
// finish the stream, and require its API responses to be byte-identical
// to a reference server that ingested the same K batches without ever
// crashing. Every /ingest 200 was fsynced before it was sent, so the
// kill must cost nothing.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, res := writeSnapshot(t)
	concept := res.Names()[res.Kept[0].Hyper]
	dir := t.TempDir()
	refSnap := copyFile(t, snap, dir, "ref.snap")
	crashSnap := copyFile(t, snap, dir, "crash.snap")
	walDir := filepath.Join(dir, "wal")
	titles := []string{"崩溃恢复一", "崩溃恢复二", "崩溃恢复三", "崩溃恢复四"}

	// Reference: volatile ingester, never crashes, sees all 4 batches.
	var refErr syncBuffer
	refAPI, refIngest, _ := startServerWithIngest(t, &refErr, "-load", refSnap)
	for _, title := range titles {
		if code := postPage(t, refIngest, title, concept); code != http.StatusOK {
			t.Fatalf("reference ingest %q status = %d; stderr:\n%s", title, code, refErr.String())
		}
	}

	// Crash server: WAL-backed, killed after acknowledging 2 of 4.
	var crashErr syncBuffer
	_, crashIngest, proc := startServerWithIngest(t, &crashErr,
		"-load", crashSnap, "-wal", walDir, "-compact-every", "0")
	for _, title := range titles[:2] {
		if code := postPage(t, crashIngest, title, concept); code != http.StatusOK {
			t.Fatalf("pre-crash ingest %q status = %d; stderr:\n%s", title, code, crashErr.String())
		}
	}
	if err := proc.Process.Kill(); err != nil { // SIGKILL: no shutdown hooks run
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = proc.Process.Wait()

	// Restart from the same snapshot + WAL; the tail replays, then the
	// stream finishes.
	var recoverErr syncBuffer
	recAPI, recIngest, _ := startServerWithIngest(t, &recoverErr,
		"-load", crashSnap, "-wal", walDir, "-compact-every", "0")
	// The replay is logged before the address is announced, but stderr
	// reaches the buffer through its own copier, so the line is waited
	// for rather than read once.
	defer func() {
		if t.Failed() {
			t.Logf("restart stderr:\n%s", recoverErr.String())
		}
	}()
	eventually(t, 20*time.Second, "the restart replaying the 2 acknowledged batches", func() bool {
		return strings.Contains(recoverErr.String(), "replayed 2 wal batches")
	})
	for _, title := range titles[2:] {
		if code := postPage(t, recIngest, title, concept); code != http.StatusOK {
			t.Fatalf("post-recovery ingest %q status = %d; stderr:\n%s", title, code, recoverErr.String())
		}
	}

	// Byte-identical equivalence across the three public APIs: the
	// crashed-and-recovered server must be indistinguishable from the
	// one that never died.
	probes := []string{"/api/getEntity?concept=" + concept}
	for _, title := range titles {
		probes = append(probes,
			"/api/getConcept?entity="+title,
			"/api/men2ent?mention="+title)
	}
	fetch := func(base, probe string) []byte {
		t.Helper()
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatalf("GET %s: %v", probe, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", probe, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", probe, err)
		}
		return body
	}
	for _, probe := range probes {
		want := fetch(refAPI, probe)
		got := fetch(recAPI, probe)
		if !bytes.Equal(got, want) {
			t.Errorf("recovered server diverges on %s:\n  recovered: %s\n  reference: %s", probe, got, want)
		}
	}
}

// TestWalFlagValidation pins the -wal flag contract: it needs both the
// snapshot to compact into and the ingest listener.
func TestWalFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	out, err := exec.Command(serverBinary(t), "-addr", "127.0.0.1:0", "-wal", t.TempDir()).CombinedOutput()
	if err == nil {
		t.Fatalf("-wal without -load/-ingest accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "-wal requires") {
		t.Errorf("unexpected error output: %s", out)
	}
}

// TestIngestRequiresMutableState pins the flag contract: -ingest over
// a snapshot saved without the update substrate has no evidence to
// update and must refuse at startup.
func TestIngestRequiresMutableState(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	_, res := writeSnapshot(t)
	var snap bytes.Buffer
	if err := cnprobase.SaveSnapshot(&snap, &cnprobase.Result{Taxonomy: res.Taxonomy}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bare.snap")
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(serverBinary(t), "-addr", "127.0.0.1:0", "-ingest", "127.0.0.1:0", "-load", path).CombinedOutput()
	if err == nil {
		t.Fatalf("-ingest over a snapshot without evidence accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "ingestion needs the update substrate") {
		t.Errorf("unexpected error output: %s", out)
	}
}

// TestShutdownLogsLatency pins the satellite: on SIGTERM the server
// drains and logs per-endpoint p50/p99 latency before exiting.
func TestShutdownLogsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, _ := writeSnapshot(t)
	var stderr syncBuffer
	base, cmd := startServerCapture(t, &stderr, "-load", snap)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(base + "/api/men2ent?mention=任意")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "shutting down") {
		t.Errorf("shutdown not logged:\n%s", out)
	}
	if !strings.Contains(out, "latency men2ent") || !strings.Contains(out, "p50=") || !strings.Contains(out, "p99=") {
		t.Errorf("latency summary missing from shutdown log:\n%s", out)
	}
}

// TestLoadCorruptSnapshot wants a clean, diagnosable exit — not a
// crash, not a server — when the snapshot file is damaged.
func TestLoadCorruptSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	snap, _ := writeSnapshot(t)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	corrupt := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(serverBinary(t), "-addr", "127.0.0.1:0", "-load", corrupt).CombinedOutput()
	if err == nil {
		t.Fatalf("server accepted a corrupt snapshot:\n%s", out)
	}
	if !strings.Contains(string(out), "load snapshot") {
		t.Errorf("error output does not mention the snapshot: %s", out)
	}
}

// TestLoadLegacySnapshotRefused: a snapshot of an older format — the
// striped version 2, or version 4, whose image stored an evidence count
// per edge — is refused loudly, not decoded quietly. At startup —
// view-only and with the write model — the server exits non-zero with
// the one-line error that names the version found and the rebuild
// command; on SIGHUP the same file leaves the current view serving and
// logs that line.
func TestLoadLegacySnapshotRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	refusal := func(version int) string {
		return fmt.Sprintf("format version %d is no longer read — rebuild the snapshot with `cnprobase build -save`", version)
	}
	legacy, err := filepath.Abs("../../internal/snapshot/testdata/legacy-v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := writeSnapshot(t)
	// A version-4 file is today's file under the old version number: the
	// version is the first thing read.
	v4, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	v4[8] = 4
	v4Path := filepath.Join(t.TempDir(), "legacy-v4.snap")
	if err := os.WriteFile(v4Path, v4, 0o644); err != nil {
		t.Fatal(err)
	}
	for version, path := range map[int]string{2: legacy, 4: v4Path} {
		for _, extra := range [][]string{nil, {"-ingest", "127.0.0.1:0"}} {
			args := append([]string{"-addr", "127.0.0.1:0", "-load", path}, extra...)
			out, err := exec.Command(serverBinary(t), args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%v: server started from a version-%d snapshot:\n%s", args, version, out)
			}
			if !strings.Contains(string(out), refusal(version)) || strings.Contains(string(out), "panic") ||
				strings.Count(strings.TrimSpace(string(out)), "\n") != 0 {
				t.Errorf("%v: want the one-line refusal, got:\n%s", args, out)
			}
		}
	}

	var stderr syncBuffer
	base, cmd := startServerCapture(t, &stderr, "-load", snap)
	// Replace the file by rename, as the compactor does: the serving
	// view is a mapping of the old inode, which must stay whole.
	data, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap+".tmp", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(snap+".tmp", snap); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	eventually(t, 20*time.Second, "the refused reload being logged", func() bool {
		return strings.Contains(stderr.String(), "keeping current view") && strings.Contains(stderr.String(), refusal(2))
	})
	resp, err := http.Get(base + "/api/getEntity?concept=人物&limit=1")
	if err != nil {
		t.Fatalf("query after refused reload: %v", err)
	}
	defer resp.Body.Close()
	var ent struct {
		Hyponyms []string `json:"hyponyms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ent); err != nil || resp.StatusCode != http.StatusOK || len(ent.Hyponyms) != 1 {
		t.Fatalf("current view not serving after the refused reload: status %d, %v, %v", resp.StatusCode, ent.Hyponyms, err)
	}
}

// TestFlagValidation covers flag parsing: unknown flags exit with the
// flag package's status 2.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: compiles and runs the binary")
	}
	out, err := exec.Command(serverBinary(t), "-no-such-flag").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown flag accepted:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("unknown flag: err = %v, want exit status 2", err)
	}
	if !strings.Contains(string(out), "Usage") {
		t.Errorf("unknown flag output missing usage: %s", out)
	}
}
