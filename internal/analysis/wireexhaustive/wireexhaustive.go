// Package wireexhaustive enforces the three hand-maintained tables that a
// wire message type must appear in: the Clone type switch, the compact
// encoder's type switch, and the compact decoder's tag switch. Adding a
// concrete Msg without full plumbing fails `make lint` instead of
// panicking during a soak.
//
// The analyzer is structural rather than name-bound so its golden testdata
// exercises the same logic as the real package:
//
//   - a "marker interface" is a package-level interface with exactly one
//     unexported niladic method (wire.Msg's `isMsg()` shape);
//   - every package-level concrete type implementing it is a message;
//   - every type switch over the marker interface must list every message
//     (Clone and enc.msg are exactly these switches);
//   - if the package declares tag constants (`tag<Type>`), every message
//     needs one, and every message's tag must appear as a switch case
//     (the compact decode table);
//   - a message with an `Op uint64` field is a trace envelope: every keyed
//     composite literal of it in non-test code must set Op explicitly, so
//     a reply path cannot silently drop the distributed trace ID.
package wireexhaustive

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wireexhaustive",
	Doc:  "check that every concrete wire.Msg is covered by Clone and the compact encode/decode tables",
	Scoped: func(importPath string) bool {
		return strings.Contains(importPath, "internal/wire")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, iface := range markerInterfaces(pass.Pkg) {
		msgs := concreteImpls(pass.Pkg, iface)
		if len(msgs) == 0 {
			continue
		}
		checkTypeSwitches(pass, iface, msgs)
		checkTagTable(pass, msgs)
		checkOpEcho(pass, msgs)
	}
	return nil
}

// checkOpEcho enforces the trace-context convention: a message with an
// `Op uint64` field is a trace envelope, and every keyed composite
// literal of one must set the Op key explicitly. A server path that
// rebuilds the envelope around its reply and forgets the key silently
// drops the distributed trace ID — nothing breaks, the op just loses
// its server-side life, so no functional test catches it. Empty
// literals (zero values) and positional literals (all fields present
// by construction) are exempt, as are _test.go files,
// which construct deliberately untraced envelopes; production code
// writes `Op: 0` to mark an envelope untraced on purpose.
func checkOpEcho(pass *analysis.Pass, msgs []*types.TypeName) {
	carriers := map[*types.TypeName]bool{}
	for _, m := range msgs {
		st, ok := m.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() != "Op" {
				continue
			}
			if b, ok := f.Type().(*types.Basic); ok && b.Kind() == types.Uint64 {
				carriers[m] = true
			}
		}
	}
	if len(carriers) == 0 {
		return
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || len(cl.Elts) == 0 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[cl]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok || !carriers[named.Obj()] {
				return true
			}
			keyed, hasOp := false, false
			for _, e := range cl.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyed = true
				if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Op" {
					hasOp = true
				}
			}
			if keyed && !hasOp {
				pass.Reportf(cl.Pos(), "%s literal does not set Op: echo the trace ID explicitly (Op: 0 marks a deliberately untraced envelope)",
					named.Obj().Name())
			}
			return true
		})
	}
}

// markerInterfaces finds package-level interfaces shaped like wire.Msg: one
// unexported method, no parameters, no results.
func markerInterfaces(pkg *types.Package) []*types.Named {
	var out []*types.Named
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		iface, ok := named.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() != 1 {
			continue
		}
		m := iface.Method(0)
		sig := m.Type().(*types.Signature)
		if m.Exported() || sig.Params().Len() != 0 || sig.Results().Len() != 0 {
			continue
		}
		out = append(out, named)
	}
	return out
}

// concreteImpls returns the package-level non-interface types whose value
// type implements iface, sorted by name.
func concreteImpls(pkg *types.Package, iface *types.Named) []*types.TypeName {
	var out []*types.TypeName
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		if types.Implements(t, iface.Underlying().(*types.Interface)) {
			out = append(out, tn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// checkTypeSwitches requires every type switch whose subject is the marker
// interface to list every message type explicitly; a default clause does
// not count as coverage.
func checkTypeSwitches(pass *analysis.Pass, iface *types.Named, msgs []*types.TypeName) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			subject := typeSwitchSubject(ts)
			if subject == nil {
				return true
			}
			tv, ok := pass.TypesInfo.Types[subject]
			if !ok || !types.Identical(tv.Type, iface) {
				return true
			}
			covered := map[string]bool{}
			for _, stmt := range ts.Body.List {
				cc := stmt.(*ast.CaseClause)
				for _, e := range cc.List {
					if caseTV, ok := pass.TypesInfo.Types[e]; ok && caseTV.Type != nil {
						// Messages are value types, so pointer cases don't arise.
						if named, ok := caseTV.Type.(*types.Named); ok {
							covered[named.Obj().Name()] = true
						}
					}
				}
			}
			var missing []string
			for _, m := range msgs {
				if !covered[m.Name()] {
					missing = append(missing, m.Name())
				}
			}
			if len(missing) > 0 {
				pass.Reportf(ts.Switch, "type switch over %s is missing cases for: %s",
					iface.Obj().Name(), strings.Join(missing, ", "))
			}
			return true
		})
	}
}

func typeSwitchSubject(ts *ast.TypeSwitchStmt) ast.Expr {
	switch s := ts.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := s.X.(*ast.TypeAssertExpr); ok {
			return ta.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if ta, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok {
				return ta.X
			}
		}
	}
	return nil
}

// checkTagTable enforces the compact-codec naming convention: if the
// package has integer constants named tag<Something>, then every message
// needs a tag<Type> constant, and each such constant must appear as a case
// in some switch (the decode table).
func checkTagTable(pass *analysis.Pass, msgs []*types.TypeName) {
	scope := pass.Pkg.Scope()
	tags := map[string]*types.Const{}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "tag") || len(name) <= len("tag") {
			continue
		}
		if c.Val().Kind() != constant.Int {
			continue
		}
		tags[name] = c
	}
	if len(tags) == 0 {
		return // package has no compact tag table
	}

	// Constants referenced as case expressions in value switches.
	inCase := map[types.Object]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			for _, stmt := range sw.Body.List {
				for _, e := range stmt.(*ast.CaseClause).List {
					if id, ok := e.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							inCase[obj] = true
						}
					}
				}
			}
			return true
		})
	}

	for _, m := range msgs {
		tagName := "tag" + m.Name()
		c, ok := tags[tagName]
		if !ok {
			pass.Reportf(m.Pos(), "wire message %s has no %s constant in the compact tag table", m.Name(), tagName)
			continue
		}
		if !inCase[c] {
			pass.Reportf(c.Pos(), "tag constant %s is never used as a switch case: %s is missing from the compact decode table", tagName, m.Name())
		}
	}
}
