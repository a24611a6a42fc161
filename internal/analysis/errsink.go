package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errsink flags discarded error results from the calls whose failures the
// runtime must propagate: transport Send*/Flush (a dead wire must park the
// part, not spin — PR 7's dead-transport fix), the coordinator's side of
// the run lifecycle (Load, SubmitJob, InjectEviction — also promoted
// through machine.TCPCluster — and machine.Inject: a driver that drops one
// of these awaits halts no node will ever send), machine Part lifecycle calls (Start, StartServe,
// ApplyJob, CollectChunked — a swallowed load failure is
// exactly the silent node death the load barrier exists to surface),
// the job refusal checks (checkJob, checkWireJob — a discarded refusal
// runs the job it refused) and the verifier (Litmus.Verify, CheckSC, CheckSCFrom, SCChecker.Check —
// a dropped verdict is a silently wrong image).
// Both the bare-statement form and the explicit `_ =` discard are flagged:
// a deliberate discard must say why, as `//em2:errsink-ok: <why>` on the
// line.
var Errsink = &Analyzer{
	Name: "errsink",
	Doc:  "flag discarded errors from transport sends/flushes, coordinator lifecycle calls, Part lifecycle calls, job refusal checks and the run verifier",
	Run:  runErrsink,
}

func runErrsink(pass *Pass) error {
	if !deterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.AssignStmt:
				// Only the single-value form `_ = call` can discard the
				// error of the tracked calls (each returns just an error).
				if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
					if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						call, _ = st.Rhs[0].(*ast.CallExpr)
					}
				}
			case *ast.GoStmt:
				call = st.Call
			case *ast.DeferStmt:
				call = st.Call
			}
			if call == nil || !errsinkTracked(pass.TypesInfo, call) {
				return true
			}
			if annotated(pass, call.Pos(), markErrsinkOK) {
				return true
			}
			pass.Reportf(call.Pos(),
				"error result of %s is discarded; transport, coordinator, Part and verifier failures must propagate (or annotate //em2:errsink-ok: <why>)",
				types.ExprString(call.Fun))
			return true
		})
	}
	return nil
}

// machineTracked is the machine package's tracked surface, functions by
// name and methods as Receiver.Name: the lifecycle's injection loop, the
// Part methods whose error results carry load or lifecycle failures, the
// job refusal checks, and the verifier.
var machineTracked = map[string]bool{
	"Inject":              true,
	"checkJob":            true,
	"checkWireJob":        true,
	"Part.Start":          true,
	"Part.StartServe":     true,
	"Part.ApplyJob":       true,
	"Part.CollectChunked": true,
	"Litmus.Verify":       true,
	"CheckSC":             true,
	"CheckSCFrom":         true,
	"SCChecker.Check":     true,
}

// coordLifecycle is the set of Coordinator methods that move a run (or a
// serve job) forward and return only an error.
var coordLifecycle = map[string]bool{
	"Load":           true,
	"SubmitJob":      true,
	"InjectEviction": true,
}

// errsinkTracked reports whether call's discarded error errsink polices:
// a transport Send*/Flush, a Coordinator lifecycle method, or one of
// machineTracked, in every case returning an error as its only result.
func errsinkTracked(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig := fn.Signature()
	if res := sig.Results(); res.Len() != 1 || !isErrorType(res.At(0).Type()) {
		return false
	}
	name := fn.Name()
	if fromTransportPackage(fn) && sig.Recv() != nil {
		return name == "Flush" || (strings.HasPrefix(name, "Send") && len(name) > 4) ||
			(coordLifecycle[name] && recvNamed(sig) == "Coordinator")
	}
	if sig.Recv() != nil {
		name = recvNamed(sig) + "." + name
	}
	return machineTracked[name] && fromMachinePackage(fn)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// recvNamed returns the name of the receiver's (possibly pointer-stripped)
// named type, or "".
func recvNamed(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// fromMachinePackage reports whether obj is declared in a package with a
// "machine" path segment.
func fromMachinePackage(obj types.Object) bool {
	if obj.Pkg() == nil {
		return false
	}
	for _, seg := range strings.Split(obj.Pkg().Path(), "/") {
		if seg == "machine" {
			return true
		}
	}
	return false
}
