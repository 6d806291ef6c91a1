// Command doclint enforces the repository's documentation contract:
// every package under internal/ carries a package comment, every
// exported symbol there carries a doc comment, every relative link
// in the repository's Markdown files resolves to an existing file, and
// every `#fragment` link (same-document or cross-document) resolves to
// a real heading's GitHub-style anchor. It also flags exported
// functions and methods under internal/ that only tests reference, so
// dead surface cannot accumulate.
// `make doclint` runs it as part of `make verify`
// (LATLAB_SKIP_DOCLINT=1 opts out).
//
// Usage:
//
//	doclint [-root dir]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("doclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root to lint")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var findings []string
	godoc, err := lintGoDocs(filepath.Join(*root, "internal"))
	if err != nil {
		fmt.Fprintln(stderr, "doclint:", err)
		return 2
	}
	findings = append(findings, godoc...)
	links, err := lintMarkdownLinks(*root)
	if err != nil {
		fmt.Fprintln(stderr, "doclint:", err)
		return 2
	}
	findings = append(findings, links...)
	anchors, err := lintMarkdownAnchors(*root)
	if err != nil {
		fmt.Fprintln(stderr, "doclint:", err)
		return 2
	}
	findings = append(findings, anchors...)
	unused, err := lintTestOnlyExports(*root)
	if err != nil {
		fmt.Fprintln(stderr, "doclint:", err)
		return 2
	}
	findings = append(findings, unused...)

	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "doclint: %d problems\n", len(findings))
		return 1
	}
	fmt.Fprintln(stdout, "doclint: ok")
	return 0
}

// lintGoDocs walks every package directory under dir and reports
// missing package comments and undocumented exported symbols. Test
// files are exempt.
func lintGoDocs(dir string) ([]string, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil, nil // nothing under internal/ to lint
	}
	var pkgDirs []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			p := filepath.Dir(path)
			if len(pkgDirs) == 0 || pkgDirs[len(pkgDirs)-1] != p {
				pkgDirs = append(pkgDirs, p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(pkgDirs)

	var findings []string
	fset := token.NewFileSet()
	for _, p := range pkgDirs {
		pkgs, err := parser.ParseDir(fset, p, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			findings = append(findings, lintPackage(fset, p, pkg)...)
		}
	}
	return findings, nil
}

// lintPackage checks one parsed package: a package comment on some
// file, and a doc comment on every exported top-level symbol (methods
// included when their receiver type is itself exported).
func lintPackage(fset *token.FileSet, dir string, pkg *ast.Package) []string {
	var findings []string
	hasPkgDoc := false
	var files []string
	for name := range pkg.Files {
		files = append(files, name)
	}
	sort.Strings(files)
	for _, name := range files {
		if pkg.Files[name].Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
	}
	for _, name := range files {
		for _, decl := range pkg.Files[name].Decls {
			findings = append(findings, lintDecl(fset, decl)...)
		}
	}
	return findings
}

// lintDecl reports undocumented exported symbols in one declaration.
func lintDecl(fset *token.FileSet, decl ast.Decl) []string {
	pos := func(p token.Pos) string {
		position := fset.Position(p)
		return fmt.Sprintf("%s:%d", position.Filename, position.Line)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		kind := "function"
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) > 0 {
			recv := receiverName(d.Recv.List[0].Type)
			if recv != "" && !ast.IsExported(recv) {
				return nil // method of an unexported type
			}
			kind = "method"
			name = recv + "." + name
		}
		return []string{fmt.Sprintf("%s: exported %s %s has no doc comment", pos(d.Pos()), kind, name)}
	case *ast.GenDecl:
		if d.Doc != nil || d.Tok == token.IMPORT {
			return nil // a documented group covers its members
		}
		var findings []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil {
					findings = append(findings, fmt.Sprintf("%s: exported type %s has no doc comment", pos(s.Pos()), s.Name.Name))
				}
			case *ast.ValueSpec:
				if s.Doc != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						findings = append(findings, fmt.Sprintf("%s: exported %s %s has no doc comment", pos(s.Pos()), d.Tok, n.Name))
					}
				}
			}
		}
		return findings
	}
	return nil
}

// receiverName extracts the base type name of a method receiver.
func receiverName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr: // generic receiver
		return receiverName(t.X)
	}
	return ""
}

// mdLink matches inline Markdown links and images; group 1 is the
// target.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// lintMarkdownLinks checks every *.md under root (skipping .git and
// testdata): relative link targets must exist on disk. External
// schemes and pure-anchor links are not checked (no network); fenced
// code blocks are ignored.
func lintMarkdownLinks(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				target, _, _ = strings.Cut(target, "#")
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: broken link %s", path, i+1, m[1]))
				}
			}
		}
		return nil
	})
	return findings, err
}
