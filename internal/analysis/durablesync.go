package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DurableSync enforces the durability contract of the WAL and snapshot
// planes: an acknowledged write must survive a crash, which means every
// Sync, Close (of a write handle), Rename and Truncate error must be
// observed, and every rename that publishes a file must be followed by
// a directory fsync.
//
// Three rules:
//
//  1. The error result of Sync/SyncDir/Close/Rename/Truncate must not
//     be discarded — not as a bare expression statement, not via
//     `_ =`, and not in a defer. Close is only held to this when the
//     receiver demonstrably came from a write-open (os.Create,
//     os.CreateTemp, os.OpenFile, or a method named OpenAppend);
//     read-side closes (os.Open, .Open) lose nothing and are exempt
//     everywhere. A Close whose handle has unknown provenance is
//     flagged only inside the durability packages (internal/wal,
//     internal/snapshot, internal/atomicfile), where write handles
//     dominate.
//
//  2. A function that calls os.Rename (or a Rename method) must, later
//     in the same function, fsync the directory — via a call whose name
//     contains "SyncDir"/"syncDir" or a .Sync() method call — or the
//     rename is not durable (the dirent may be lost on power failure).
//
//  3. Rules apply module-wide for os-level calls; the unknown-origin
//     Close tightening is scoped to the durability packages.
var DurableSync = &Analyzer{
	Name: "durablesync",
	Doc:  "flag unchecked Sync/Close/Rename/Truncate errors and rename without dir fsync",
	Run:  runDurableSync,
}

// durabilityPkg reports whether path is one of the packages holding the
// durability plane, where even unknown-origin closes must be checked.
func durabilityPkg(path string) bool {
	return strings.HasSuffix(path, "internal/wal") || strings.HasSuffix(path, "internal/snapshot") ||
		strings.HasSuffix(path, "internal/atomicfile")
}

func runDurableSync(pass *Pass) error {
	strict := durabilityPkg(pass.Pkg.Path())
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		origins := writeHandleOrigins(pass, fd)
		checkDiscardedDurableErrors(pass, fd, origins, strict)
		checkRenameDirSync(pass, fd)
	})
	return nil
}

// handleOrigin classifies how a file-handle variable was obtained.
type handleOrigin int

const (
	originUnknown handleOrigin = iota
	originRead                 // os.Open / .Open — closing loses nothing
	originWrite                // os.Create / os.CreateTemp / os.OpenFile / .OpenAppend
)

// writeHandleOrigins walks fd's body classifying each variable that is
// ever assigned from a file-opening call.
func writeHandleOrigins(pass *Pass, fd *ast.FuncDecl) map[*types.Var]handleOrigin {
	origins := make(map[*types.Var]handleOrigin)
	classify := func(call *ast.CallExpr) handleOrigin {
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return originUnknown
		}
		pkg := ""
		if fn.Pkg() != nil {
			pkg = fn.Pkg().Path()
		}
		isMethod := fn.Type().(*types.Signature).Recv() != nil
		switch {
		case pkg == "os" && !isMethod:
			switch fn.Name() {
			case "Open":
				return originRead
			case "Create", "CreateTemp", "OpenFile":
				return originWrite
			}
		case isMethod:
			switch fn.Name() {
			case "Open":
				return originRead
			case "OpenAppend", "Create", "CreateTemp", "OpenFile":
				return originWrite
			}
		}
		return originUnknown
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		origin := classify(call)
		if origin == originUnknown {
			return true
		}
		// f, err := open(...) — the handle is Lhs[0].
		if id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident); ok {
			v, ok := pass.Info.Defs[id].(*types.Var)
			if !ok {
				v, ok = pass.Info.Uses[id].(*types.Var)
			}
			if ok {
				origins[v] = origin
			}
		}
		return true
	})
	return origins
}

// durableCallName returns the checked-error method name if call is one
// of the durability-critical calls, else "".
func durableCallName(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	sig := fn.Type().(*types.Signature)
	isMethod := sig.Recv() != nil
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	// The call must actually return an error to be dischargeable.
	if sig.Results().Len() == 0 {
		return ""
	}
	switch name {
	case "Sync", "SyncDir", "Close", "Truncate":
		if isMethod || pkg == "os" {
			return name
		}
	case "Rename":
		if pkg == "os" || isMethod {
			return name
		}
	}
	return ""
}

// closeReceiverOrigin resolves the origin of the receiver of a .Close()
// call, if the receiver is a plain identifier tracked in origins.
func closeReceiverOrigin(pass *Pass, call *ast.CallExpr, origins map[*types.Var]handleOrigin) handleOrigin {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return originUnknown
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return originUnknown
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok {
		return originUnknown
	}
	return origins[v]
}

// checkDiscardedDurableErrors flags durable calls whose error result is
// discarded: bare statement, defer, or assignment to blank.
func checkDiscardedDurableErrors(pass *Pass, fd *ast.FuncDecl, origins map[*types.Var]handleOrigin, strict bool) {
	flag := func(call *ast.CallExpr, how string) {
		name := durableCallName(pass, call)
		if name == "" {
			return
		}
		if name == "Close" {
			switch closeReceiverOrigin(pass, call, origins) {
			case originRead:
				return // closing a read handle loses nothing
			case originUnknown:
				if !strict {
					return
				}
			}
		}
		pass.Report(call.Pos(), "%s error %s — a dropped %s can silently lose acknowledged writes", name, how, name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				flag(call, "discarded")
			}
		case *ast.DeferStmt:
			flag(st.Call, "discarded in defer")
		case *ast.GoStmt:
			flag(st.Call, "discarded in go statement")
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			allBlank := true
			for _, lhs := range st.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
					break
				}
			}
			if allBlank {
				flag(call, "assigned to _")
			}
		}
		return true
	})
}

// checkRenameDirSync verifies that any function performing an os.Rename
// (or Rename method) also fsyncs the containing directory afterwards.
// The directory sync is recognized as a call whose function name
// contains "SyncDir"/"syncDir", or any .Sync() method call after the
// rename (the dir-handle Sync idiom).
func checkRenameDirSync(pass *Pass, fd *ast.FuncDecl) {
	var renames []*ast.CallExpr
	var syncPositions []int // token offsets of dir-sync-capable calls
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		name := fn.Name()
		isMethod := fn.Type().(*types.Signature).Recv() != nil
		pkg := ""
		if fn.Pkg() != nil {
			pkg = fn.Pkg().Path()
		}
		switch {
		case name == "Rename" && (pkg == "os" || isMethod):
			renames = append(renames, call)
		case strings.Contains(name, "SyncDir") || strings.Contains(name, "syncDir"):
			syncPositions = append(syncPositions, int(call.Pos()))
		case name == "Sync" && isMethod:
			syncPositions = append(syncPositions, int(call.Pos()))
		}
		return true
	})
	for _, rename := range renames {
		synced := false
		for _, pos := range syncPositions {
			if pos > int(rename.Pos()) {
				synced = true
				break
			}
		}
		if !synced {
			pass.Report(rename.Pos(),
				"rename without a following directory fsync — the new dirent may be lost on power failure")
		}
	}
}
