package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNewLoaderStartsNoProcess pins where the go command runs: NewLoader
// only reads go.mod, so it succeeds with no go on PATH, and the go list
// call that LoadTree makes fails with an error naming the go command.
func TestNewLoaderStartsNoProcess(t *testing.T) {
	t.Setenv("PATH", "")
	loader, err := NewLoader("")
	if err != nil {
		t.Fatalf("NewLoader with an empty PATH: %v", err)
	}
	_, err = loader.LoadTree(filepath.Join("testdata", "src", "maporder"), true)
	if err == nil {
		t.Fatal("LoadTree succeeded with no go command on PATH")
	}
	if msg := err.Error(); !strings.Contains(msg, "go list") || !strings.Contains(msg, `"go"`) {
		t.Fatalf("error does not name go list and the go command: %v", err)
	}
}

// TestLoadDirFallsBackForUnlistedImport loads a fixture whose standard-
// library import the primed set lacks: it resolves through one go list
// call for that path.
func TestLoadDirFallsBackForUnlistedImport(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadTree(filepath.Join("..", "report"), false); err != nil {
		t.Fatal(err)
	}
	const path = "container/ring"
	if _, listed := loader.exports[path]; listed {
		t.Fatalf("%s already listed by the tree load; the fixture no longer exercises the fallback", path)
	}
	pkgs, err := loader.LoadDir(filepath.Join("testdata", "src", "exportfallback"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Types.Scope().Lookup("Size") == nil {
		t.Fatalf("fixture not type-checked: %v", pkgs)
	}
	imports := pkgs[0].Types.Imports()
	if len(imports) != 1 || imports[0].Path() != path || imports[0].Scope().Lookup("New") == nil {
		t.Fatalf("imports = %v, want %s read from export data", imports, path)
	}
}

// TestImportMissingPackageFails imports a path that is neither in the
// module nor in the standard library: an error naming go list and the
// path, not a panic.
func TestImportMissingPackageFails(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	const path = "nonexistent/lintpkg"
	pkg, err := loader.Import(path)
	if err == nil {
		t.Fatalf("Import(%q) = %v, want an error", path, pkg)
	}
	if msg := err.Error(); !strings.Contains(msg, "go list") || !strings.Contains(msg, path) {
		t.Fatalf("error does not name go list and %s: %v", path, err)
	}
}

// TestUnreadableExportDataFails hands the importer a file that is not
// export data, as a toolchain mismatch would: the import fails loudly,
// naming go list and the package, instead of falling back.
func TestUnreadableExportDataFails(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(t.TempDir(), "ring.a")
	if err := os.WriteFile(bogus, []byte("not export data\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const path = "container/ring"
	loader.exports[path] = bogus
	_, err = loader.Import(path)
	if err == nil {
		t.Fatal("Import read a file that is not export data")
	}
	if msg := err.Error(); !strings.Contains(msg, "go list") || !strings.Contains(msg, path) {
		t.Fatalf("error does not name go list and %s: %v", path, err)
	}
}
