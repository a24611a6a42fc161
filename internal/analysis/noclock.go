package analysis

import "go/ast"

// Noclock forbids wall-clock reads and package-global math/rand calls in
// deterministic packages. A time.Now that leaks into a report, a ticker
// that gates a deterministic loop, or a rand.Intn drawing from the shared
// global source each make two identically seeded runs diverge. Randomness
// must flow from an injected, seeded *rand.Rand (rand.New(rand.NewSource)
// is allowed — it constructs exactly that); time must stay out of
// deterministic surfaces entirely.
//
// One escape hatch: `//em2:wallclock-ok: <why>` on the line or the line
// above. It carries tcp.go's dial-retry deadline loop and advisory
// heartbeat machinery, which talk to real sockets, and cluster.go's
// heartbeat-age summary, which only decorates a timeout error message;
// none of them feeds a deterministic result.
//
// The historical bug this would have caught: the PR 1 seed's TableT1
// reported wall-clock cell timings, so no two runs of the flagship table
// ever matched until it was rebuilt on model costs.
var Noclock = &Analyzer{
	Name: "noclock",
	Doc:  "forbid wall-clock and global math/rand calls in deterministic packages",
	Run:  runNoclock,
}

// bannedTime is the set of time-package functions that read or schedule
// against the wall clock. Timer construction with an injected timeout
// (time.NewTimer, time.After in failure paths) is deliberately not banned:
// timeouts only fire on the failure path and never enter a deterministic
// result.
var bannedTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Sleep":     true,
	"NewTicker": true,
	"Tick":      true,
}

// allowedRand is the set of math/rand package functions that construct
// injectable state rather than drawing from the global source.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runNoclock(pass *Pass) error {
	if !deterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Signature().Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are injected state
			}
			var what string
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					what = "wall-clock call time." + fn.Name()
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					what = "global math/rand call rand." + fn.Name()
				}
			}
			if what == "" {
				return true
			}
			if annotated(pass, call.Pos(), markWallclockOK) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s in deterministic package %s; inject seeded state (or annotate //em2:wallclock-ok: <why>)",
				what, pass.Pkg.Path())
			return true
		})
	}
	return nil
}
