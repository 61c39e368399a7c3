package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestGatewayLinksNoComputePackage keeps soigw a thin scatter-gather
// process: it speaks the wire contract through internal/httpapi and must
// not link the daemon core or any package that samples worlds, builds or
// reads indexes, or selects seeds. The walk follows the non-test imports of
// every file, on every platform, so it over-approximates what go build
// links.
func TestGatewayLinksNoComputePackage(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	reach := map[string]bool{}
	var walk func(pkg string)
	walk = func(pkg string) {
		if reach[pkg] {
			return
		}
		reach[pkg] = true
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, "soi")))
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("package %s: %v", pkg, err)
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == "soi" || strings.HasPrefix(path, "soi/") {
					walk(path)
				}
			}
		}
	}
	walk("soi/cmd/soigw")

	for _, banned := range []string{"server", "core", "index", "sketch", "infmax",
		"reliability", "cascade", "worlds", "jaccard", "scc"} {
		if reach["soi/internal/"+banned] {
			t.Errorf("soigw reaches soi/internal/%s", banned)
		}
	}
	var pkgs []string
	for p := range reach {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	if len(pkgs) > 10 {
		t.Errorf("soigw reaches %d soi packages, want at most 10: %v", len(pkgs), pkgs)
	}
}
