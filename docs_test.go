package mqo

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the files whose go test commands the name check reads: the
// CI workflow, README and the verify skill, the documents that tell a
// reader what to run.
func docFiles(t *testing.T) []string {
	skill, err := filepath.Glob(".*/skills/verify/SKILL.md")
	if err != nil || len(skill) != 1 {
		t.Fatalf("verify skill: found %v, %v", skill, err)
	}
	return []string{".github/workflows/ci.yml", "README.md", skill[0]}
}

// goTestValueFlags are the go test flags that take a value, so the word
// after them is not a package.
var goTestValueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "skip": true, "list": true,
	"count": true, "cpu": true, "benchtime": true, "fuzztime": true, "fuzzminimizetime": true,
	"timeout": true, "parallel": true, "shuffle": true, "p": true, "o": true, "exec": true,
	"tags": true, "outputdir": true, "coverprofile": true, "covermode": true, "coverpkg": true,
	"cpuprofile": true, "memprofile": true, "memprofilerate": true, "blockprofile": true,
	"blockprofilerate": true, "mutexprofile": true, "mutexprofilefraction": true, "trace": true,
}

// TestDocCommandsNameRealTests: every go test command written on one line in
// docFiles selects, with each |-alternative of its -run, -bench and -fuzz
// patterns (but ^$ and .), at least one function its packages declare. A
// renamed or deleted test otherwise leaves a CI step or a documented check
// that runs nothing and still passes.
func TestDocCommandsNameRealTests(t *testing.T) {
	decls := map[string][]string{} // package dir -> its test, benchmark, fuzz and example funcs
	checked := 0
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for rest := line; ; {
				at := strings.Index(rest, "go test ")
				if at < 0 {
					break
				}
				rest = rest[at+len("go test "):]
				where := file + ":" + strconv.Itoa(i+1)
				cmd, err := parseGoTest(rest)
				if err != nil {
					t.Errorf("%s: %v", where, err)
					continue
				}
				for _, dir := range cmd.dirs {
					if _, ok := decls[dir]; !ok {
						if decls[dir], err = testFuncs(dir); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
					}
				}
				for _, sel := range cmd.selects {
					for _, alt := range alternatives(sel.pattern) {
						re, err := regexp.Compile(alt)
						if err != nil {
							t.Errorf("%s: -%s alternative %q: %v", where, sel.flag, alt, err)
							continue
						}
						checked++
						if !anyFuncMatches(re, sel.flag, cmd.dirs, decls) {
							t.Errorf("%s: -%s alternative %q selects no function in %v", where, sel.flag, alt, cmd.dirs)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz alternative found in the documents")
	}
}

// goTestCmd is one go test command: the package directories it tests and
// the patterns that select what it runs.
type goTestCmd struct {
	dirs    []string
	selects []selection
}

type selection struct{ flag, pattern string }

// parseGoTest reads the arguments of a go test command from the text after
// "go test ", up to the end of the command: a closing backquote, a shell
// separator or comment, or the end of the line. A command with no -run,
// -bench or -fuzz pattern is returned empty: nothing in it names a test.
func parseGoTest(s string) (goTestCmd, error) {
	words := shellWords(s)
	var cmd goTestCmd
	var pkgs, other []string
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			if w == "." || strings.HasPrefix(w, "./") {
				pkgs = append(pkgs, w)
			} else {
				other = append(other, w)
			}
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
		if !goTestValueFlags[name] {
			continue
		}
		if !hasValue {
			if i+1 == len(words) {
				return goTestCmd{}, fmt.Errorf("flag %s has no value on this line: write the command on one line", w)
			}
			i++
			value = words[i]
		}
		if (name == "run" || name == "bench" || name == "fuzz") && value != "^$" && value != "." {
			cmd.selects = append(cmd.selects, selection{name, value})
		}
	}
	if len(cmd.selects) == 0 {
		return goTestCmd{}, nil
	}
	if len(other) > 0 {
		return goTestCmd{}, fmt.Errorf("words %q are neither flags nor packages", other)
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	for _, p := range pkgs {
		dirs, err := packageDirs(p)
		if err != nil {
			return goTestCmd{}, err
		}
		cmd.dirs = append(cmd.dirs, dirs...)
	}
	return cmd, nil
}

// shellWords splits a command into words as a shell would, taking quotes
// off, and stops at the first unquoted backquote, ;, &, |, ) or " #", or at
// a quote that does not close on the line.
func shellWords(s string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	flush := func() {
		if inWord {
			words = append(words, word.String())
			word.Reset()
			inWord = false
		}
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\'', '"':
			end := strings.IndexByte(s[i+1:], c)
			if end < 0 { // a quote that closes on a later line: the words so far
				flush()
				return words
			}
			word.WriteString(s[i+1 : i+1+end])
			inWord = true
			i += 1 + end
		case ' ', '\t':
			flush()
		case '`', ';', '&', '|', ')':
			flush()
			return words
		case '#':
			if !inWord {
				return words
			}
			word.WriteByte(c)
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	flush()
	return words
}

// packageDirs resolves a relative package argument to the directories it
// names; "/..." takes every package below, as go test does, skipping
// testdata, hidden directories and the benchmark module.
func packageDirs(pkg string) ([]string, error) {
	root, recursive := strings.CutSuffix(pkg, "...")
	root = filepath.Clean(root)
	if !recursive {
		if _, err := os.Stat(root); err != nil {
			return nil, fmt.Errorf("package %s: %v", pkg, err)
		}
		return []string{root}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if path != root && (base == "testdata" || base == "benchmark" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// testFuncs lists the Test, Benchmark, Fuzz and Example functions the
// _test.go files of dir declare.
func testFuncs(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range af.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names, nil
}

// alternatives splits the top level of a go test pattern — the part before
// its first / outside brackets, which go test matches against top-level
// names — at each | outside parentheses and brackets.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		case '/':
			if depth == 0 {
				return append(alts, pattern[start:i])
			}
		}
	}
	return append(alts, pattern[start:])
}

// anyFuncMatches reports whether re matches a function of dirs that flag
// selects: -run runs tests, examples and fuzz targets' seeds, -bench
// benchmarks, -fuzz fuzz targets.
func anyFuncMatches(re *regexp.Regexp, flag string, dirs []string, decls map[string][]string) bool {
	kinds := map[string][]string{
		"run":   {"Test", "Example", "Fuzz"},
		"bench": {"Benchmark"},
		"fuzz":  {"Fuzz"},
	}[flag]
	for _, dir := range dirs {
		for _, name := range decls[dir] {
			for _, kind := range kinds {
				if strings.HasPrefix(name, kind) && re.MatchString(name) {
					return true
				}
			}
		}
	}
	return false
}
