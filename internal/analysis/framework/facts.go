package framework

import (
	"go/ast"
	"go/types"
	"sync"
)

// Facts is a cross-package store of analyzer-computed facts keyed by the
// types.Object the fact describes — the interprocedural memory the
// first-generation analyzers lacked. RunAnalyzers visits packages in import
// order (imported packages first), so an analyzer inspecting package P can
// query facts it exported while visiting P's dependencies: goroleak, for
// example, records for every function whether its body joins on a context,
// channel, or WaitGroup, and resolves `go pkg.Fn()` sites against those
// facts even when Fn lives in another analyzed package.
//
// Keys are namespaced by convention as "<analyzer>.<fact>" so analyzers
// sharing one store cannot collide. The store is safe for concurrent use.
type Facts struct {
	mu sync.RWMutex
	m  map[types.Object]map[string]any
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{m: make(map[types.Object]map[string]any)}
}

// Export records a fact about obj. A nil store or nil obj is a no-op, so
// analyzers run outside RunAnalyzers (e.g. direct unit tests) need no
// guards.
func (f *Facts) Export(obj types.Object, key string, val any) {
	if f == nil || obj == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	facts, ok := f.m[obj]
	if !ok {
		facts = make(map[string]any)
		f.m[obj] = facts
	}
	facts[key] = val
}

// Get returns the fact recorded for obj under key, if any.
func (f *Facts) Get(obj types.Object, key string) (any, bool) {
	if f == nil || obj == nil {
		return nil, false
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, ok := f.m[obj][key]
	return v, ok
}

// GetBool is Get for the common boolean-fact case; absent facts are false.
func (f *Facts) GetBool(obj types.Object, key string) (value, known bool) {
	v, ok := f.Get(obj, key)
	if !ok {
		return false, false
	}
	b, ok := v.(bool)
	return b, ok
}

// CallGraph records, per package, the declared functions and their
// statically resolved same-package callees, letting analyzers reason one
// hop (or a bounded number of hops) across function boundaries without a
// whole-program SSA build. Dynamic calls through interfaces or function
// values are not resolved — analyzers treat unresolved targets
// conservatively.
type CallGraph struct {
	decls   map[*types.Func]*ast.FuncDecl
	callees map[*types.Func][]*types.Func
}

// NewCallGraph builds the call graph of one type-checked package.
func NewCallGraph(info *types.Info, files []*ast.File) *CallGraph {
	g := &CallGraph{
		decls:   make(map[*types.Func]*ast.FuncDecl),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[fn] = fd
			seen := make(map[*types.Func]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := CalleeOf(info, call)
				if callee != nil && !seen[callee] {
					seen[callee] = true
					g.callees[fn] = append(g.callees[fn], callee)
				}
				return true
			})
		}
	}
	return g
}

// DeclOf returns the declaration of fn within the graph's package, or nil
// for functions declared elsewhere (or without bodies).
func (g *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl {
	if g == nil {
		return nil
	}
	return g.decls[fn]
}

// Callees returns the statically resolved functions fn calls.
func (g *CallGraph) Callees(fn *types.Func) []*types.Func {
	if g == nil {
		return nil
	}
	return g.callees[fn]
}

// Functions returns every function declared in the graph's package, in
// unspecified order.
func (g *CallGraph) Functions() []*types.Func {
	if g == nil {
		return nil
	}
	out := make([]*types.Func, 0, len(g.decls))
	for fn := range g.decls {
		out = append(out, fn)
	}
	return out
}

// CalleeOf resolves a call expression to the static *types.Func it invokes:
// plain calls, method calls, and calls through package selectors. Calls
// through function values, interface methods with no static target, and
// built-ins resolve to nil.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
