package repro

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis/framework"
)

// testOnlyTag marks an exported declaration under internal/ that only tests
// call on purpose: a test seam, a test oracle, or an entry point a planned
// caller will use. The tag must be followed by the reason.
const testOnlyTag = "//mimonet:testonly-ok"

// TestNoTestOnlyExports fails on every exported function, method or type in
// a non-test file under internal/ that no non-test file of the module
// (bench/ included) refers to: code that only its own tests run. A
// declaration tagged testOnlyTag on its line or the line above stays; on a
// type the tag covers its methods. A method also stays when its receiver
// implements a named interface, declared in the module or in anything it
// imports, that has the method. Unwrap, Is and As count as interface
// methods because package errors calls them through anonymous interfaces.
// A tagged function or method that non-test code does call fails the test
// too, so the tags name exactly the test-only set.
func TestNoTestOnlyExports(t *testing.T) {
	modPath, pkgs := loadModule(t)
	ifaces := interfacesByMethod(pkgs)

	type decl struct {
		pos  token.Position
		what string
		recv types.Object // a method's receiver type, nil otherwise
	}
	candidates := make(map[types.Object]decl)
	taggedTypes := make(map[types.Object]bool)
	// taggedFuncs holds the tagged functions and methods: a reference from
	// non-test code makes the tag stale.
	taggedFuncs := make(map[types.Object]decl)
	// self holds the spans in which a reference to an object is part of its
	// own declaration: its body, or the receiver of one of its methods.
	type span struct{ from, to token.Pos }
	self := make(map[types.Object][]span)
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, modPath+"/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			tagged := testOnlyLines(t, pkg.Fset, f)
			isTagged := func(pos token.Pos) bool {
				line := pkg.Fset.Position(pos).Line
				return tagged[line] || tagged[line-1]
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					obj := pkg.Info.Defs[fd.Name]
					self[obj] = append(self[obj], span{fd.Pos(), fd.End()})
					c := decl{pos: pkg.Fset.Position(fd.Pos()), what: "func " + fd.Name.Name}
					if fd.Recv != nil {
						c.recv = receiverType(pkg.Info, fd)
						self[c.recv] = append(self[c.recv], span{fd.Recv.Pos(), fd.Recv.End()})
						c.what = "method " + c.recv.Name() + "." + fd.Name.Name
					}
					switch {
					case isTagged(fd.Pos()):
						taggedFuncs[obj] = c
					case fd.Name.IsExported() && !implemented(ifaces, c.recv, fd.Name.Name):
						candidates[obj] = c
					}
					continue
				}
				for _, s := range d.(*ast.GenDecl).Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					obj := pkg.Info.Defs[ts.Name]
					self[obj] = append(self[obj], span{ts.Pos(), ts.End()})
					switch {
					case isTagged(ts.Pos()):
						taggedTypes[obj] = true
					case ts.Name.IsExported():
						candidates[obj] = decl{pos: pkg.Fset.Position(ts.Pos()), what: "type " + ts.Name.Name}
					}
				}
			}
		}
	}

	for _, pkg := range pkgs {
	uses:
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			_, candidate := candidates[obj]
			tag, hasTag := taggedFuncs[obj]
			if !candidate && !hasTag {
				continue
			}
			for _, s := range self[obj] {
				if s.from <= id.Pos() && id.Pos() < s.to {
					continue uses
				}
			}
			delete(candidates, obj)
			if hasTag {
				t.Errorf("%s: %s carries %s but %s uses it: drop the tag", tag.pos, tag.what, testOnlyTag, pkg.Fset.Position(id.Pos()))
				delete(taggedFuncs, obj)
			}
		}
	}

	var found []string
	for _, c := range candidates {
		if !taggedTypes[c.recv] {
			found = append(found, c.pos.String()+": "+c.what)
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s: no non-test code refers to it: delete it, or tag it %s with the reason", f, testOnlyTag)
	}
}

// TestNoUnsetConfigFields fails on every exported field of an exported
// struct type under internal/ whose name ends in Config, Options or Policy
// that no non-test file of the module (bench/, cmd/ and examples/ included)
// sets: a setting with one value in use, which belongs in a constant next to
// the code that reads it. A write is a composite-literal key, the target of
// an assignment or increment, or an address taken (a flag binding); writing
// a field of a field, or an element of one, writes the outer field too.
// Writes inside the struct's own defaulting code — its withDefaults method,
// or a Default… function returning it — do not count. A field whose doc or
// line comment carries testOnlyTag stays (TestNoTestOnlyExports fails a tag
// without a reason); a tagged field that non-test code does set fails the
// test too, so no tag goes stale.
func TestNoUnsetConfigFields(t *testing.T) {
	modPath, pkgs := loadModule(t)

	type field struct {
		pos    token.Position
		what   string
		owner  types.Object // the config type declaring the field
		tagged bool
	}
	fields := make(map[*types.Var]*field)
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, modPath+"/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !isConfigName(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					owner := pkg.Info.Defs[ts.Name]
					for _, fl := range st.Fields.List {
						tagged := hasTestOnlyTag(fl.Doc) || hasTestOnlyTag(fl.Comment)
						for _, name := range fl.Names {
							if !name.IsExported() {
								continue
							}
							fields[pkg.Info.Defs[name].(*types.Var)] = &field{
								pos:    pkg.Fset.Position(name.Pos()),
								what:   pkg.Types.Name() + "." + ts.Name.Name + "." + name.Name,
								owner:  owner,
								tagged: tagged,
							}
						}
					}
				}
			}
		}
	}

	set := make(map[*types.Var]token.Position)
	for _, pkg := range pkgs {
		// defaulting is the config type whose own defaulting code the walk
		// is in, nil elsewhere.
		var defaulting types.Object
		mark := func(v *types.Var, at token.Pos) {
			v = v.Origin()
			if f, ok := fields[v]; ok && f.owner != defaulting {
				if _, dup := set[v]; !dup {
					set[v] = pkg.Fset.Position(at)
				}
			}
		}
		// markTarget marks every field along an assignment target such as
		// c.Link.Channel.SNRdB or c.Tones[0].
		markTarget := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if sel := pkg.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						mark(sel.Obj().(*types.Var), x.Sel.Pos())
					}
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				defaulting = nil
				if fd, ok := d.(*ast.FuncDecl); ok {
					defaulting = defaultsOf(pkg.Info, fd)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := pkg.Info.TypeOf(n).Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							kv, ok := elt.(*ast.KeyValueExpr)
							if !ok {
								mark(st.Field(i), elt.Pos())
								continue
							}
							if v, ok := pkg.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								mark(v, kv.Key.Pos())
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markTarget(lhs)
						}
					case *ast.IncDecStmt:
						markTarget(n.X)
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							markTarget(n.Key)
							if n.Value != nil {
								markTarget(n.Value)
							}
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markTarget(n.X)
						}
					}
					return true
				})
			}
		}
	}

	var found []string
	for v, f := range fields {
		at, isSet := set[v]
		switch {
		case isSet && f.tagged:
			found = append(found, fmt.Sprintf("%s: %s carries %s but %s sets it: drop the tag", f.pos, f.what, testOnlyTag, at))
		case !isSet && !f.tagged:
			found = append(found, fmt.Sprintf("%s: no non-test code sets %s: make it a constant, or tag it %s with the reason", f.pos, f.what, testOnlyTag))
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

// hasTestOnlyTag reports whether a comment group carries testOnlyTag.
func hasTestOnlyTag(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, testOnlyTag) {
			return true
		}
	}
	return false
}

// isConfigName reports whether a type name marks a struct of settings.
func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
}

// defaultsOf returns the config type whose defaulting code fd is: the
// receiver of a withDefaults method, or the result of a function named
// Default… that returns one value. It returns nil for any other function.
func defaultsOf(info *types.Info, fd *ast.FuncDecl) types.Object {
	sig := info.Defs[fd.Name].Type().(*types.Signature)
	var t types.Type
	switch {
	case fd.Name.Name == "withDefaults" && sig.Recv() != nil:
		t = sig.Recv().Type()
	case strings.HasPrefix(fd.Name.Name, "Default") && sig.Results().Len() == 1:
		t = sig.Results().At(0).Type()
	default:
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// module is the whole module's non-test code, bench/ included, loaded once
// for the tests in this file.
var module = sync.OnceValues(func() (loadedModule, error) {
	root, modPath, err := framework.FindModule(".")
	if err != nil {
		return loadedModule{}, err
	}
	loader := &framework.Loader{ModRoot: root, ModPath: modPath}
	pkgs, err := loader.LoadPatterns("./...")
	return loadedModule{modPath, pkgs}, err
})

type loadedModule struct {
	path string
	pkgs []*framework.Package
}

// loadModule returns the module path and its packages.
func loadModule(t *testing.T) (string, []*framework.Package) {
	m, err := module()
	if err != nil {
		t.Fatal(err)
	}
	return m.path, m.pkgs
}

// testOnlyLines returns the lines of f that carry testOnlyTag, and fails the
// test for a tag that gives no reason.
func testOnlyLines(t *testing.T, fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			reason, ok := strings.CutPrefix(c.Text, testOnlyTag)
			if !ok {
				continue
			}
			if strings.TrimSpace(reason) == "" {
				t.Errorf("%s: %s without a reason", fset.Position(c.Pos()), testOnlyTag)
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

// receiverType returns the named type a method is declared on.
func receiverType(info *types.Info, fd *ast.FuncDecl) types.Object {
	recv := info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named).Obj()
}

// interfacesByMethod indexes every non-generic named interface declared in
// the loaded packages, in anything they import, or in the universe (error),
// by the names of its methods.
func interfacesByMethod(pkgs []*framework.Package) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			return
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return
		}
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
			}
		}
	}
	add(types.Universe.Lookup("error"))
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			add(p.Scope().Lookup(name))
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return out
}

// implemented reports whether method name of recv is an interface method:
// recv or a pointer to it implements a named interface that declares it, or
// it is one of the methods package errors looks up through anonymous
// interfaces.
func implemented(ifaces map[string][]*types.Interface, recv types.Object, name string) bool {
	if recv == nil {
		return false
	}
	switch name {
	case "Unwrap", "Is", "As":
		return true
	}
	for _, iface := range ifaces[name] {
		if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
			return true
		}
	}
	return false
}
