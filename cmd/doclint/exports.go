package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// exemptMethods are method names satisfied implicitly by the standard
// library (fmt, errors, encoding/json), so a missing selector is no
// evidence that they are unused.
var exemptMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// exportDecl is one exported function or method declared under
// internal/.
type exportDecl struct {
	pos  string
	pkg  string // import path of the declaring package
	recv string // receiver type name, "" for a function
	name string
}

// useIndex is what the repository's non-test Go files reference.
type useIndex struct {
	qualified map[string]bool // "importpath.Name": pkg.Name selectors and same-package idents
	selectors map[string]bool // every selected name (x.Name): method calls and values
	iface     map[string]bool // method names of every interface type
}

// lintTestOnlyExports reports exported functions, and exported methods
// of exported types, declared under root/internal that no non-test Go
// file in the repository references — code that only tests keep
// alive. Every Go file under root counts as a possible caller,
// including nested modules (a sibling go.mod is resolved to its own
// module path). Resolution is by name, without type checking: a
// package function is used when some file selects it through an import
// of its package or names it from inside the package; a method is used
// when any file selects its name or any interface declares it. Names
// the standard library calls implicitly (exemptMethods) are never
// flagged.
func lintTestOnlyExports(root string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(root, "internal")); os.IsNotExist(err) {
		return nil, nil
	}
	use := useIndex{qualified: map[string]bool{}, selectors: map[string]bool{}, iface: map[string]bool{}}
	var decls []exportDecl
	mods := map[string]string{} // directory -> import path
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg, err := importPath(root, filepath.Dir(p), mods)
		if err != nil {
			return err
		}
		indexUses(f, pkg, use)
		if rel, _ := filepath.Rel(root, p); strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			decls = append(decls, exportedFuncs(fset, f, pkg)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var findings []string
	for _, d := range decls {
		if d.recv == "" {
			if !use.qualified[d.pkg+"."+d.name] {
				findings = append(findings, fmt.Sprintf("%s: exported function %s.%s has no non-test caller",
					d.pos, path.Base(d.pkg), d.name))
			}
			continue
		}
		if !use.selectors[d.name] && !use.iface[d.name] && !exemptMethods[d.name] {
			findings = append(findings, fmt.Sprintf("%s: exported method %s.%s.%s has no non-test caller",
				d.pos, path.Base(d.pkg), d.recv, d.name))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// exportedFuncs lists f's exported functions and the exported methods
// of its exported types.
func exportedFuncs(fset *token.FileSet, f *ast.File, pkg string) []exportDecl {
	var out []exportDecl
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		d := exportDecl{pkg: pkg, name: fd.Name.Name}
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			d.recv = receiverName(fd.Recv.List[0].Type)
			if !ast.IsExported(d.recv) {
				continue
			}
		}
		position := fset.Position(fd.Pos())
		d.pos = fmt.Sprintf("%s:%d", position.Filename, position.Line)
		out = append(out, d)
	}
	return out
}

// indexUses records every reference f makes: selectors through its
// imports, bare identifiers (same-package uses of pkg), every selected
// name, and the method names of the interfaces it declares.
func indexUses(f *ast.File, pkg string, use useIndex) {
	imports := map[string]string{} // local name -> import path
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		name := path.Base(p)
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = p
	}
	declared := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			declared[fd.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			use.selectors[x.Sel.Name] = true
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					use.qualified[p+"."+x.Sel.Name] = true
				}
			}
			declared[x.Sel] = true // a selected name is not a same-package ident
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					use.iface[name.Name] = true
				}
			}
		case *ast.Ident:
			if !declared[x] {
				use.qualified[pkg+"."+x.Name] = true
			}
		}
		return true
	})
}

// importPath returns the import path of the package in dir: the
// nearest enclosing go.mod's module path joined with dir's path below
// it. Directories outside any module resolve relative to root. Results
// are cached in mods.
func importPath(root, dir string, mods map[string]string) (string, error) {
	if p, ok := mods[dir]; ok {
		return p, nil
	}
	var p string
	if mod, err := modulePath(filepath.Join(dir, "go.mod")); err != nil {
		return "", err
	} else if mod != "" {
		p = mod
	} else if dir == root || filepath.Dir(dir) == dir {
		p = ""
	} else {
		parent, err := importPath(root, filepath.Dir(dir), mods)
		if err != nil {
			return "", err
		}
		p = path.Join(parent, filepath.Base(dir))
	}
	mods[dir] = p
	return p, nil
}

// modulePath reads the module directive of the go.mod at file, "" when
// the file does not exist.
func modulePath(file string) (string, error) {
	f, err := os.Open(file)
	if os.IsNotExist(err) {
		return "", nil
	} else if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", sc.Err()
}
