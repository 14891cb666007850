package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExports reports exported API of internal packages that only
// tests use. An exported package-level name, or an exported method,
// of a package under internal/ must be referenced by a non-test file
// of another loaded package, or used by a non-test file of its own
// package outside its own declaration (a type's declaration includes
// its methods, so a receiver does not count as a use). A method whose
// name appears in any interface of the loaded program is exempt: it
// may be called through that interface, which no identifier records.
// An internal package's API serves the repository; a name that only
// its tests call is code to keep green for nothing.
var DeadExports = &Analyzer{
	Name: "deadexports",
	Doc:  "exported names of internal packages need a non-test user",
	Run:  runDeadExports,
}

func runDeadExports(pass *Pass) error {
	path := pass.Pkg.Path()
	if !strings.Contains("/"+path+"/", "/internal/") {
		return nil
	}
	used := map[string]bool{}
	for _, pkg := range pass.Program {
		if pkg.Types == pass.Pkg {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == path && isPackageLevel(obj) {
				used[objKey(obj)] = true
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			markInPackageUses(pass, decl, used)
		}
	}

	methodNames := interfaceMethodNames(pass.Program)
	report := func(obj types.Object, what string) {
		if obj.Exported() && !used[objKey(obj)] {
			pass.Reportf(obj.Pos(), "exported %s %s has no non-test user: delete it or annotate it //lint:allow deadexports <reason>", what, objKey(obj))
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		report(obj, "name")
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); !methodNames[m.Name()] {
				report(m, "method")
			}
		}
	}
	return nil
}

// markInPackageUses records the package's own names that decl uses,
// skipping the names decl itself declares.
func markInPackageUses(pass *Pass, decl ast.Decl, used map[string]bool) {
	mark := func(node ast.Node, self map[string]bool) {
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pkg() == pass.Pkg && isPackageLevel(obj) {
					if k := objKey(obj); !self[k] {
						used[k] = true
					}
				}
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := map[string]bool{}
		if obj := pass.TypesInfo.Defs[d.Name]; obj != nil {
			self[objKey(obj)] = true
			if recv := obj.(*types.Func).Type().(*types.Signature).Recv(); recv != nil {
				if n := namedOf(recv.Type()); n != nil {
					self[n.Obj().Name()] = true
				}
			}
		}
		mark(d, self)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			self := map[string]bool{}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[s.Name.Name] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[n.Name] = true
				}
			}
			mark(spec, self)
		}
	}
}

// isPackageLevel reports whether obj is a method or is declared in
// its package's scope (not a local, field or parameter).
func isPackageLevel(obj types.Object) bool {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return true
	}
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// objKey names obj within its package: "Name" for a package-level
// object, "Type.Method" for a method. Objects of the same package
// compare by key because an importing package sees the export-data
// copy of an object, not the one its own package type-checked.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// interfaceMethodNames collects the method names of every interface
// the program can see: interface types its code mentions, and those
// declared in the scope of any package it imports, directly or not.
func interfaceMethodNames(prog []*Package) map[string]bool {
	names := map[string]bool{"Error": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return names
}
