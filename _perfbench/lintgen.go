package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// The lint workload's input: a synthetic module generated from the seed.
// Its size is fixed (package count, functions per package, plants per
// analyzer); the seed only moves things around. It imports the same
// standard-library set as this repository, so the loader type-checks the
// same closure from source, and it plants violations for every analyzer,
// //ttdc:hotpath contracts included. The module path is "repro" so the
// analyzers scoped to this repository's deterministic packages
// (internal/engine, internal/core, internal/sim) apply to the generated
// packages at those paths.
const (
	genFillerPkgs   = 20
	genFuncsPerPkg  = 40
	genPlantsPerKey = 2
)

// genStdlib is the repository's standard-library import set, each with a
// declaration that uses the package without tripping any analyzer.
var genStdlib = []struct{ path, use string }{
	{"bufio", "var _ *bufio.Reader"},
	{"bytes", "var _ *bytes.Buffer"},
	{"container/list", "var _ *list.List"},
	{"context", "var _ context.Context"},
	{"crypto/sha256", "var _ = sha256.Size"},
	{"encoding/binary", "var _ binary.ByteOrder"},
	{"encoding/hex", "var _ = hex.EncodeToString"},
	{"encoding/json", "var _ *json.Decoder"},
	{"errors", "var _ = errors.New"},
	{"flag", "var _ *flag.FlagSet"},
	{"fmt", "var _ fmt.Stringer"},
	{"go/ast", "var _ *ast.File"},
	{"go/format", "var _ = format.Source"},
	{"go/importer", "var _ importer.Lookup"},
	{"go/parser", "var _ parser.Mode"},
	{"go/token", "var _ *token.FileSet"},
	{"go/types", "var _ *types.Package"},
	{"hash/crc32", "var _ = crc32.Size"},
	{"hash/fnv", "var _ = fnv.New64a"},
	{"io", "var _ io.Reader"},
	{"io/fs", "var _ fs.FS"},
	{"log", "var _ *log.Logger"},
	{"math", "var _ = math.Pi"},
	{"math/big", "var _ *big.Int"},
	{"math/bits", "var _ = bits.UintSize"},
	{"math/rand", "var _ *rand.Rand"},
	{"net", "var _ net.Addr"},
	{"net/http", "var _ *http.Request"},
	{"net/http/httptest", "var _ *httptest.Server"},
	{"os", "var _ *os.File"},
	{"os/signal", "var _ = signal.Notify"},
	{"path/filepath", "var _ = filepath.Separator"},
	{"reflect", "var _ reflect.Type"},
	{"regexp", "var _ *regexp.Regexp"},
	{"runtime", "var _ = runtime.GOOS"},
	{"sort", "var _ sort.Interface"},
	{"strconv", "var _ = strconv.IntSize"},
	{"strings", "var _ *strings.Builder"},
	{"sync", "var _ *sync.Mutex"},
	{"sync/atomic", "var _ *atomic.Int64"},
	{"syscall", "var _ syscall.Signal"},
	{"testing", "var _ *testing.T"},
	{"testing/quick", "var _ *quick.Config"},
	{"time", "var _ time.Duration"},
}

// scopedPkgs are the generated packages at the import paths the
// determinism analyzers (walltime, detflow, floatflow) are scoped to.
var scopedPkgs = []string{"internal/engine", "internal/core", "internal/sim"}

// plant is one planted violation: its imports and its lines. A line that
// starts with "!name " must draw a finding of analyzer name.
type plant struct {
	key     string
	imports []string
	lines   func(id string) []string
}

// plants covers every analyzer, plus the "hotpath" pseudo-analyzer for a
// contract without a reason. walltime and detflow share a plant because
// detflow needs a wall-clock read one call away.
var plants = []plant{
	{"ratcompare", []string{"math/big"}, func(id string) []string {
		return []string{"func Same" + id + "(a, b *big.Rat) bool {", "!ratcompare \treturn a == b", "}"}
	}},
	{"maporder", []string{"fmt"}, func(id string) []string {
		return []string{"func Dump" + id + "(m map[string]int) {", "\tfor k, v := range m {", "!maporder \t\tfmt.Println(k, v)", "\t}", "}"}
	}},
	{"ratfloat", []string{"math/big"}, func(id string) []string {
		return []string{"func Approx" + id + "(r *big.Rat) float64 {", "!ratfloat \tf, _ := r.Float64()", "\treturn f", "}"}
	}},
	{"seededrand", []string{"math/rand"}, func(id string) []string {
		return []string{"func Roll" + id + "() int {", "!seededrand \treturn rand.Intn(6)", "}"}
	}},
	{"poolput", []string{"sync"}, func(id string) []string {
		return []string{
			"type scratch" + id + " struct{ sums []uint64 }", "",
			"var pool" + id + " = sync.Pool{New: func() any { return new(scratch" + id + ") }}", "",
			"func Leaky" + id + "(skip bool) int {",
			"!poolput \ts := pool" + id + ".Get().(*scratch" + id + ")",
			"\tif skip {", "\t\treturn 0", "\t}",
			"\tn := len(s.sums)", "\tpool" + id + ".Put(s)", "\treturn n", "}",
		}
	}},
	{"ctxcancel", []string{"context"}, func(id string) []string {
		return []string{"func Detached" + id + "(parent context.Context) context.Context {", "!ctxcancel \tctx, _ := context.WithCancel(parent)", "\treturn ctx", "}"}
	}},
	{"waitpair", nil, func(id string) []string {
		return []string{"func Fire" + id + "() {", "!waitpair \tgo step" + id + "()", "}", "", "func step" + id + "() {}"}
	}},
	{"atomicmix", []string{"sync/atomic"}, func(id string) []string {
		return []string{
			"var ops" + id + " int64", "",
			"func Count" + id + "() {", "\tatomic.AddInt64(&ops" + id + ", 1)", "}", "",
			"func Read" + id + "() int64 {", "!atomicmix \treturn ops" + id, "}",
		}
	}},
	{"mutexcopy", []string{"sync"}, func(id string) []string {
		return []string{
			"type guarded" + id + " struct {", "\tmu sync.Mutex", "\tn  int", "}", "",
			"!mutexcopy func Snapshot" + id + "(g guarded" + id + ") int {", "\treturn g.n", "}",
		}
	}},
	{"walltime+detflow", []string{"time"}, func(id string) []string {
		return []string{
			"func Stamp" + id + "() time.Time {", "!walltime \treturn time.Now()", "}", "",
			"func Indirect" + id + "() time.Time {", "!detflow \treturn Stamp" + id + "()", "}",
		}
	}},
	{"floatflow", nil, func(id string) []string {
		return []string{"func Fill" + id + "(m *Metrics, e float64) {", "!floatflow \tm.Energy = e", "\tm.Count++", "}"}
	}},
	{"poolescape", []string{"sync"}, func(id string) []string {
		return []string{
			"type esc" + id + " struct{ buf []uint64 }", "",
			"var escPool" + id + " = sync.Pool{New: func() any { return new(esc" + id + ") }}", "",
			"type holder" + id + " struct{ s *esc" + id + " }", "",
			"func Stash" + id + "(h *holder" + id + ") {",
			"\ts := escPool" + id + ".Get().(*esc" + id + ")",
			"!poolescape \th.s = s",
			"\tescPool" + id + ".Put(s)", "}",
		}
	}},
	{"allocflow", nil, func(id string) []string {
		return []string{
			"// HotMake" + id + " is a planted warm-path violation.", "//",
			"//ttdc:hotpath planted: claimed allocation-free but calls make",
			"func HotMake" + id + "(n int) []int {", "!allocflow \treturn make([]int, n)", "}",
		}
	}},
	{"boxing", nil, func(id string) []string {
		return []string{
			"var boxSink" + id + " interface{}", "",
			"// HotBox" + id + " is a planted warm-path violation.", "//",
			"//ttdc:hotpath planted: claimed box-free but stores an int in an interface",
			"func HotBox" + id + "(v int) {", "!boxing \tboxSink" + id + " = v", "}",
		}
	}},
	{"growloop", nil, func(id string) []string {
		return []string{
			"var queue" + id + " []int", "",
			"// HotGrow" + id + " is a planted warm-path violation.", "//",
			"//ttdc:hotpath planted: claimed pre-sized but grows per iteration",
			"func HotGrow" + id + "(xs []int) {", "\tfor _, x := range xs {", "!growloop \t\tqueue" + id + " = append(queue" + id + ", x)", "\t}", "}",
		}
	}},
	{"droppederr", []string{"repro/internal/core"}, func(id string) []string {
		return []string{"func Ignore" + id + "() {", "!droppederr \tcore.Parse(\"" + id + "\")", "}"}
	}},
	{"hotpath", nil, func(id string) []string {
		return []string{"// HotBare" + id + " has a contract with no reason.", "//", "!hotpath //ttdc:hotpath", "func HotBare" + id + "() int { return 1 }"}
	}},
}

// plantHome restricts where a plant may go: the scoped analyzers only see
// the scoped packages, floatflow's journal-bound Metrics type lives in the
// generated internal/engine, and core cannot import itself.
func plantHome(key string) []string {
	switch key {
	case "walltime+detflow":
		return scopedPkgs
	case "floatflow":
		return []string{"internal/engine"}
	}
	return nil // any filler package
}

// finding is one expected (or reported) diagnostic, keyed by the file's
// slash path relative to the module root.
type finding struct {
	file     string
	line     int
	analyzer string
}

func (f finding) String() string { return fmt.Sprintf("%s:%d:%s", f.file, f.line, f.analyzer) }

// genModule is a generated module: its files and the findings it plants.
type genModule struct {
	files      map[string]string
	want       []finding
	suppressed int
	packages   int
}

// fillerName is the generated package name of filler i.
func fillerName(i int) string { return fmt.Sprintf("pkg%02d", i) }

// generateModule builds the module for seed in memory.
func generateModule(seed uint64) *genModule {
	rng := stats.NewRNG(stats.DeriveSeed(seed, 0x11a7))
	m := &genModule{files: map[string]string{}}
	m.files["go.mod"] = "module repro\n\ngo 1.22\n"

	dirs := []string{"."}
	dirs = append(dirs, scopedPkgs...)
	for i := 0; i < genFillerPkgs; i++ {
		dirs = append(dirs, "internal/"+fillerName(i))
	}
	m.packages = len(dirs)

	// Every standard-library package lands in some filler; the rest of
	// each filler's set is drawn from the seed.
	std := map[string][]int{}
	for j := range genStdlib {
		std["internal/"+fillerName(j%genFillerPkgs)] = append(std["internal/"+fillerName(j%genFillerPkgs)], j)
	}
	for _, d := range dirs {
		for k := 0; k < 6; k++ {
			std[d] = append(std[d], rng.Intn(len(genStdlib)))
		}
	}

	// Plants: genPlantsPerKey of each, each in a seed-chosen home.
	byDir := map[string][]string{} // dir -> plant keys with ids
	for _, p := range plants {
		homes := plantHome(p.key)
		for c := 0; c < genPlantsPerKey; c++ {
			var dir string
			if homes != nil {
				dir = homes[rng.Intn(len(homes))]
			} else {
				dir = "internal/" + fillerName(rng.Intn(genFillerPkgs))
			}
			byDir[dir] = append(byDir[dir], p.key)
		}
	}
	suppressDir := "internal/" + fillerName(rng.Intn(genFillerPkgs))

	for _, dir := range dirs {
		name := "repro"
		if dir != "." {
			name = filepath.Base(dir)
		}
		m.files[filepath.ToSlash(filepath.Join(dir, "gen.go"))] = genFiller(rng, dir, name, std[dir], fillerIndex(dir))
		if keys := byDir[dir]; len(keys) > 0 || dir == suppressDir {
			m.addPlants(dir, name, keys, dir == suppressDir)
		}
	}
	sort.Slice(m.want, func(i, j int) bool { return m.want[i].String() < m.want[j].String() })
	return m
}

// addPlants writes dir/planted.go and records its expected findings.
func (m *genModule) addPlants(dir, name string, keys []string, suppress bool) {
	imports := map[string]bool{}
	var body []string
	for i, key := range keys {
		for _, p := range plants {
			if p.key != key {
				continue
			}
			for _, imp := range p.imports {
				imports[imp] = true
			}
			id := fmt.Sprintf("%s%d", strings.NewReplacer("+", "", "/", "").Replace(key), i)
			body = append(body, "")
			body = append(body, p.lines(id)...)
		}
	}
	if suppress {
		imports["math/big"] = true
		m.suppressed++
		body = append(body, "",
			"func SameOnPurpose(a, b *big.Rat) bool {",
			"\t//lint:ignore ratcompare planted suppression: pointer identity is the point here",
			"\treturn a == b", "}")
	}
	lines := []string{"// Code generated by perfbench for the lint workload. DO NOT EDIT.", "", "package " + name, ""}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		lines = append(lines, "import (")
		for _, p := range paths {
			lines = append(lines, "\t\""+p+"\"")
		}
		lines = append(lines, ")")
	}
	file := filepath.ToSlash(filepath.Join(dir, "planted.go"))
	for _, l := range body {
		if rest, ok := strings.CutPrefix(l, "!"); ok {
			analyzer, code, _ := strings.Cut(rest, " ")
			lines = append(lines, code)
			m.want = append(m.want, finding{file, len(lines), analyzer})
			continue
		}
		lines = append(lines, l)
	}
	m.files[file] = strings.Join(lines, "\n") + "\n"
}

// fillerIndex is the number of a filler package directory, or -1.
func fillerIndex(dir string) int {
	for i := 0; i < genFillerPkgs; i++ {
		if dir == "internal/"+fillerName(i) {
			return i
		}
	}
	return -1
}

// genFiller writes a package's clean code: its standard-library uses and
// genFuncsPerPkg functions from a few shapes. Filler self (-1 for the
// other packages) also calls into lower-numbered fillers, so the call
// graph spans packages.
func genFiller(rng *stats.RNG, dir, name string, stdIdx []int, self int) string {
	seen := map[int]bool{}
	var std []int
	for _, j := range stdIdx {
		if !seen[j] {
			seen[j] = true
			std = append(std, j)
		}
	}
	sort.Ints(std)
	var deps []int
	for k := 0; k < 2 && self > 0; k++ {
		if d := rng.Intn(self); !slices.Contains(deps, d) {
			deps = append(deps, d)
		}
	}
	sort.Ints(deps)
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by perfbench for the lint workload. DO NOT EDIT.\n\npackage %s\n\nimport (\n", name)
	for _, j := range std {
		fmt.Fprintf(&b, "\t%q\n", genStdlib[j].path)
	}
	for _, d := range deps {
		fmt.Fprintf(&b, "\t%q\n", "repro/internal/"+fillerName(d))
	}
	b.WriteString(")\n\n")
	for _, j := range std {
		b.WriteString(genStdlib[j].use + "\n")
	}
	for _, d := range deps {
		fmt.Fprintf(&b, "var _ = %s.Fold\n", fillerName(d))
	}
	switch dir {
	case "internal/engine":
		b.WriteString("\n// Metrics mirrors a journal-bound result row.\ntype Metrics struct {\n\tEnergy float64\n\tCount  int\n}\n")
	case "internal/core":
		b.WriteString("\n// Parse is a guarded constructor: its error must not be dropped.\nfunc Parse(s string) (int, error) {\n\tif s == \"\" {\n\t\treturn 0, errString(\"empty\")\n\t}\n\treturn len(s), nil\n}\n\ntype errString string\n\nfunc (e errString) Error() string { return string(e) }\n")
	}
	for f := 0; f < genFuncsPerPkg; f++ {
		k, mod := 3+rng.Intn(97), 2+rng.Intn(13)
		fn := fmt.Sprintf("F%d", f)
		b.WriteString("\n")
		switch shape := rng.Intn(6); {
		case shape == 0 || (shape == 5 && len(deps) == 0):
			fmt.Fprintf(&b, "// %s folds a range of integers.\nfunc %s(n int) int {\n\tacc := %d\n\tfor i := 0; i < n; i++ {\n\t\tacc = acc*31 + i%%%d\n\t}\n\treturn acc\n}\n", fn, fn, k, mod)
		case shape == 1:
			fmt.Fprintf(&b, "// %s filters and scales.\nfunc %s(xs []int) []int {\n\tout := make([]int, 0, len(xs))\n\tfor _, x := range xs {\n\t\tif x%%%d == 0 {\n\t\t\tout = append(out, x*%d)\n\t\t}\n\t}\n\treturn out\n}\n", fn, fn, mod, k)
		case shape == 2:
			fmt.Fprintf(&b, "// T%d is a small stateful counter.\ntype T%d struct{ a, b int }\n\n// Step advances the counter.\nfunc (t *T%d) Step(d int) int {\n\tt.a += d\n\tif t.a > %d {\n\t\tt.b++\n\t\tt.a -= %d\n\t}\n\treturn t.b\n}\n", f, f, f, k, k)
		case shape == 3:
			fmt.Fprintf(&b, "// %s classifies.\nfunc %s(x int) string {\n\tswitch x %% %d {\n\tcase 0:\n\t\treturn \"a\"\n\tcase 1:\n\t\treturn \"b\"\n\t}\n\treturn \"c\"\n}\n", fn, fn, mod)
		case shape == 4:
			fmt.Fprintf(&b, "// %s keeps a running maximum through a closure.\nfunc %s(xs []int) int {\n\tbest := %d\n\tvisit := func(x int) {\n\t\tif x > best {\n\t\t\tbest = x\n\t\t}\n\t}\n\tfor _, x := range xs {\n\t\tvisit(x)\n\t}\n\treturn best\n}\n", fn, fn, k)
		default:
			d := deps[rng.Intn(len(deps))]
			fmt.Fprintf(&b, "// %s calls across packages.\nfunc %s(n int) int {\n\treturn %s.Fold(n) + %d\n}\n", fn, fn, fillerName(d), k)
		}
	}
	// Fold is every filler's cross-package entry point.
	b.WriteString("\n// Fold is the entry point other generated packages call.\nfunc Fold(n int) int {\n\tacc := 0\n\tfor i := 0; i < n; i++ {\n\t\tacc += i\n\t}\n\treturn acc\n}\n")
	return b.String()
}

// write materializes the module under root.
func (m *genModule) write(root string) error {
	for rel, content := range m.files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
