package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// servingPkgPath is the package whose View type viewmut guards.
const servingPkgPath = "cnprobase/internal/serving"

// viewBuildFuncs are the only functions inside internal/serving allowed
// to write View fields: the paths that construct a fresh, heap-backed
// View before it is published (Compile reads the taxonomy into the
// canonical arrays; Fold merges a base's rows and its delta's by ID;
// buildDerived, which Compile and OpenImage call, fills the derived
// arrays; extend lays a delta's rows over a base for Patch).
var viewBuildFuncs = map[string]bool{
	"Compile":      true,
	"Fold":         true,
	"buildDerived": true,
	"extend":       true,
}

// ViewMut flags writes through serving.View backing slices. A View
// served from a memory-mapped snapshot aliases PROT_READ pages: any
// write through a slice returned by its query methods (HypernymIDsOf,
// Lookup, MentionEntities, ...) is a guaranteed SIGSEGV in production, and on
// a heap-backed View it silently corrupts the shared immutable
// taxonomy. Outside internal/serving the analyzer taints every slice
// obtained from a View method (directly or via intermediate locals)
// and flags element assignment, ++/--, compound assignment, use as a
// copy destination or append first-argument, and handing the slice to
// an in-place sorter. Inside internal/serving it flags View field
// writes anywhere but the Compile/Fold/buildDerived/extend construction
// paths.
var ViewMut = &Analyzer{
	Name: "viewmut",
	Doc:  "flag writes through serving.View backing slices (mapped views are PROT_READ)",
	Run:  runViewMut,
}

func runViewMut(pass *Pass) error {
	if pass.Pkg.Path() == servingPkgPath {
		runViewMutInternal(pass)
		return nil
	}
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		checkViewTaint(pass, fd)
	})
	return nil
}

// runViewMutInternal checks internal/serving itself: View fields may
// only be assigned in the construction path.
func runViewMutInternal(pass *Pass) {
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		if viewBuildFuncs[fd.Name.Name] {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range st.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if tv, ok := pass.Info.Types[sel.X]; ok && namedTypeIs(tv.Type, servingPkgPath, "View") {
					pass.Report(lhs.Pos(),
						"write to View field %s outside the Compile/Fold/buildDerived/extend construction paths", sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// checkViewTaint runs a simple function-local taint pass: slices that
// flow out of serving.View method calls are tainted, taint propagates
// through := / = to plain locals and through re-slicing, and any
// mutating use of a tainted value is flagged.
func checkViewTaint(pass *Pass, fd *ast.FuncDecl) {
	tainted := make(map[*types.Var]bool)

	fromView := func(expr ast.Expr) bool {
		switch e := ast.Unparen(expr).(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, e)
			if fn == nil {
				return false
			}
			sig := fn.Type().(*types.Signature)
			return sig.Recv() != nil && namedTypeIs(sig.Recv().Type(), servingPkgPath, "View")
		case *ast.Ident:
			v, _ := pass.Info.Uses[e].(*types.Var)
			return v != nil && tainted[v]
		case *ast.SliceExpr:
			return false // handled by the recursive call below
		}
		return false
	}
	// taintSource also follows re-slices of tainted values: v[1:] shares
	// the backing array.
	var taintSource func(expr ast.Expr) bool
	taintSource = func(expr ast.Expr) bool {
		if fromView(expr) {
			return true
		}
		if se, ok := ast.Unparen(expr).(*ast.SliceExpr); ok {
			return taintSource(se.X)
		}
		return false
	}
	isSliceType := func(expr ast.Expr) bool {
		tv, ok := pass.Info.Types[expr]
		if !ok || tv.Type == nil {
			return false
		}
		_, isSlice := tv.Type.Underlying().(*types.Slice)
		return isSlice
	}

	// Pass 1: propagate taint through assignments until fixpoint. The
	// loop bounds at the assignment count, which is plenty for
	// function-local chains.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !taintSource(st.Rhs[i]) {
					continue
				}
				v, ok := pass.Info.Defs[id].(*types.Var)
				if !ok {
					v, ok = pass.Info.Uses[id].(*types.Var)
				}
				if ok && !tainted[v] {
					tainted[v] = true
					changed = true
				}
			}
			return true
		})
	}

	// Pass 2: flag mutating uses of tainted values.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if ok && isSliceType(ix.X) && taintSource(ix.X) {
					pass.Report(lhs.Pos(), "write through a serving.View backing slice (mapped views are PROT_READ)")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(st.X).(*ast.IndexExpr); ok && isSliceType(ix.X) && taintSource(ix.X) {
				pass.Report(st.Pos(), "write through a serving.View backing slice (mapped views are PROT_READ)")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && isBuiltinIdent(pass.Info, id) {
				switch id.Name {
				case "copy":
					if len(st.Args) == 2 && taintSource(st.Args[0]) {
						pass.Report(st.Pos(), "copy into a serving.View backing slice (mapped views are PROT_READ)")
					}
				case "append":
					if len(st.Args) > 0 && taintSource(st.Args[0]) {
						pass.Report(st.Pos(), "append to a serving.View backing slice may write into mapped memory")
					}
				}
				return true
			}
			if fn := calleeFunc(pass.Info, st); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "sort" && strings.HasPrefix(fn.Name(), "S") {
				// sort.Sort / sort.Slice / sort.Strings / sort.Search —
				// Search is read-only, skip it.
				if fn.Name() != "Search" && fn.Name() != "SearchInts" &&
					fn.Name() != "SearchStrings" && fn.Name() != "SearchFloat64s" {
					for _, arg := range st.Args {
						if isSliceType(arg) && taintSource(arg) {
							pass.Report(st.Pos(), "in-place sort of a serving.View backing slice (mapped views are PROT_READ)")
						}
					}
				}
			}
		}
		return true
	})
}
