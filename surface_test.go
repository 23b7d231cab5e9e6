package sds

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Reasons an exported internal/ function or method may stay although no
// non-test code names it. The third is a reason that starts with
// roadmapItem and names the ROADMAP.md item that deletes it.
const (
	keptAsOracle = "an oracle, generator or tool that tests compare against or drive"
	keptAsAPI    = "documented public API of sds.go"
	roadmapItem  = "deleted by ROADMAP item "
)

// keptUnnamed lists the exported internal/ functions and methods that no
// non-test file names, each with why it stays. A key is the package's
// path under internal/, then the receiver type for a method, then the
// name.
var keptUnnamed = map[string]string{
	"accessrule.ApplyTree":          keptAsOracle,
	"docenc.Seal":                   keptAsOracle,
	"dsp.BlockFrame.CopyOut":        keptAsAPI,
	"dsp.MemStore.SwapBlocks":       roadmapItem + "7, with the hostile store that replaces it",
	"dsp.MemStore.Tamper":           roadmapItem + "7, with the hostile store that replaces it",
	"mem.Tracking.InUse":            keptAsOracle,
	"proxy.Publisher.PublishStream": roadmapItem + "6, with the staged upload",
	"workload.GrantAll":             keptAsOracle,
	"workload.RandomQuery":          keptAsOracle,
	"xpath.Matches":                 keptAsOracle,
	"xpath.MatchesNode":             keptAsOracle,
}

// TestNoUnnamedExports keeps the internal/ packages free of exported
// functions and methods that only tests reach. It parses every non-test
// .go file of the module whatever its build constraints, so a name used
// only under one platform's or one tag's files counts as used. A
// function counts as named where its own package names it unqualified or
// another file names it through an import of its package; a method
// counts as named wherever any selector carries its name, so one called
// through an interface is named at the call.
func TestNoUnnamedExports(t *testing.T) {
	mod := modulePath(t)
	var (
		decls     = map[string]token.Position{} // key → declaration
		funcPkg   = map[string]string{}         // key of a function → its package path
		local     = map[string]bool{}           // package path + "." + unqualified identifier
		qualified = map[string]bool{}           // import path + "." + selected name
		selected  = map[string]bool{}           // any selector's name
	)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := path.Join(mod, dir)
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		// notLocal holds the identifiers that name no package-level
		// function of this package: declared names and selected names.
		notLocal := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notLocal[fn.Name] = true
			under, ok := strings.CutPrefix(dir, "internal/")
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := under + "." + fn.Name.Name
			if fn.Recv != nil {
				key = under + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			} else {
				funcPkg[key] = pkg
			}
			decls[key] = fset.Position(fn.Name.Pos())
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+n.Sel.Name] = true
				}
				notLocal[n.Sel] = true
			case *ast.Ident:
				if !notLocal[n] {
					local[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unnamed []string
	for key, pos := range decls {
		name := key[strings.LastIndexByte(key, '.')+1:]
		used := selected[name]
		if pkg, ok := funcPkg[key]; ok {
			used = local[pkg+"."+name] || qualified[pkg+"."+name]
		}
		_, kept := keptUnnamed[key]
		if !used && !kept {
			unnamed = append(unnamed, pos.String()+": "+key)
		}
		if used && kept {
			t.Errorf("%s is named by non-test code now; take it off keptUnnamed", key)
		}
	}
	for key, reason := range keptUnnamed {
		if _, ok := decls[key]; !ok {
			t.Errorf("keptUnnamed lists %s, which is not declared", key)
		}
		if reason != keptAsOracle && reason != keptAsAPI && !strings.HasPrefix(reason, roadmapItem) {
			t.Errorf("keptUnnamed keeps %s for %q, which is none of the allowed reasons", key, reason)
		}
	}
	slices.Sort(unnamed)
	for _, u := range unnamed {
		t.Errorf("%s is exported but no non-test code names it: delete it, or list it in keptUnnamed with its reason", u)
	}
}

// receiverType is the name of a method receiver's type.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// modulePath reads the module path from go.mod.
func modulePath(t *testing.T) string {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}
