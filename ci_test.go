package cnprobase

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFuncName matches the declaration of a test or fuzz target.
var testFuncName = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// TestCIStepsNameExistingTests reads every `go test` command in the CI
// workflow and fails when an alternative of its -run or -fuzz pattern
// matches no Test or Fuzz function in the packages that command names.
// CI runs some tests by name (the allocation budgets, the chaos
// battery, the repeated model suites, the fuzz smokes); a test renamed,
// deleted or moved to another package would otherwise drop out of its
// step without a failure.
func TestCIStepsNameExistingTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for _, line := range strings.Split(string(data), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var pkgs, patterns []string
		args := shellFields(cmd)
		for i := 0; i < len(args); i++ {
			a := args[i]
			switch {
			case a == "&&" || a == "|":
				i = len(args)
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			case a == "-run" || a == "-fuzz":
				if i+1 < len(args) {
					i++
					patterns = append(patterns, args[i])
				}
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				_, p, _ := strings.Cut(a, "=")
				patterns = append(patterns, p)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		var funcs []string
		for _, pkg := range pkgs {
			funcs = append(funcs, testFuncs(t, pkg)...)
		}
		for _, pattern := range patterns {
			for _, alt := range strings.Split(pattern, "|") {
				if alt == "^$" {
					continue // selects nothing on purpose
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: %q is not a valid pattern: %v", alt, err)
					continue
				}
				named++
				if !matchesAny(re, funcs) {
					t.Errorf("ci.yml: %q (in %q) matches no Test or Fuzz function in %v", alt, strings.TrimSpace(line), pkgs)
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("ci.yml names no test: the workflow or this parser changed")
	}
}

// shellFields splits a command line into words, keeping a single-quoted
// span (quotes removed) inside its word.
func shellFields(s string) []string {
	var out []string
	var word strings.Builder
	inWord, quoted := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inWord {
				out = append(out, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, word.String())
	}
	return out
}

// testFuncs returns the Test and Fuzz functions declared in the test
// files of package directory pkg, or of every package under it when pkg
// ends in "/...".
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncName.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading the tests of %s: %v", pkg, err)
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
