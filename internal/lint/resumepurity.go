package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Resumepurity guards the other half of the bit-identical-resume
// guarantee: the code that writes, reads and replays snapshots must be
// deterministic. A checkpoint/restore pair that consults wall-clock
// time, math/rand, mutable global state, or map iteration order
// produces resumes that diverge from the uninterrupted run in ways no
// SIGKILL test reliably catches.
//
// Purity roots are the save/load methods of every //statecover:root
// registration plus any function marked //semsim:resumepure in its doc
// comment. From each root, the pass walks the same-package static call
// closure and reports, at the offending line:
//
//   - wall-clock reads: time.Now, time.Since, time.Until;
//   - any use of math/rand or math/rand/v2 (internal/rng state travels
//     inside the snapshot instead);
//   - reads or writes of mutable package-level state — a global that is
//     assigned outside its declaration or init, has its address taken,
//     or contains sync/atomic machinery;
//   - ranging over a map where the loop body is order-sensitive (the
//     same analysis detrand applies to core packages).
//
// The reach is cross-package: for every package, the pass computes a
// purity summary of each package-level function — including impurity
// inherited from its own callees — and exports it as a PurityFact, so a
// restore path in internal/solver that calls into internal/circuit or
// internal/rng sees through the boundary without whole-program
// analysis. Calls into internal/obs and internal/invariant are exempt
// by design: observability and debug invariants are passive (proven
// non-perturbing by the obs determinism tests) and may read clocks.
//
// A finding is waived by a same-line `//resumepure:ok <reason>` comment
// with a mandatory reason, mirroring //hotalloc:ok.
var Resumepurity = &Analyzer{
	Name: "resumepurity",
	Run:  runResumepurity,
}

// PurityFact summarizes a function for downstream packages: Impure
// functions poison any resume path that calls them. Only impure
// functions carry a fact; absence means pure (or out of scope).
type PurityFact struct {
	Reason string // first violation, with its source position
}

// AFact marks PurityFact as a fact.
func (*PurityFact) AFact() {}

func (f *PurityFact) String() string { return "resume-impure: " + f.Reason }

// GlobalFact marks an exported package-level variable as mutable, so
// reads of it from another package's resume path are flagged.
type GlobalFact struct {
	Mutable bool
}

// AFact marks GlobalFact as a fact.
func (*GlobalFact) AFact() {}

func (f *GlobalFact) String() string {
	if f.Mutable {
		return "mutable-global"
	}
	return "immutable-global"
}

// resumepurityExemptPkgs are package path suffixes whose code may
// legitimately read clocks and globals on any path: observability and
// debug-invariant layers are passive by proven construction. They are
// skipped entirely — they export no purity facts, and absence of a fact
// means pure.
var resumepurityExemptPkgs = []string{"internal/obs", "internal/invariant"}

// resumeViolation is one determinism hazard at a source position.
type resumeViolation struct {
	pos token.Pos
	msg string
}

func runResumepurity(pass *Pass) error {
	if pathHasSuffixAny(pass.Path, resumepurityExemptPkgs) {
		return nil
	}
	decls := funcDecls(pass)
	mutables := mutableGlobals(pass)
	// Export mutability facts for exported globals so other packages'
	// resume paths can be checked against them.
	for v := range mutables {
		if v.Exported() {
			pass.ExportObjectFact(v, &GlobalFact{Mutable: true})
		}
	}
	waived := resumepureWaivers(pass)

	// Direct violations per function, independent of reachability: they
	// feed both the fact computation (export for downstream packages)
	// and the diagnostics (reported only on root-reachable functions).
	direct := map[*types.Func][]resumeViolation{}
	for fn, fd := range decls {
		direct[fn] = resumeViolations(pass, fd, mutables, waived)
	}

	// Propagate impurity through the local call graph to a fixpoint, so
	// the exported facts summarize whole call chains.
	impure := map[*types.Func]string{}
	for fn, vs := range direct {
		if len(vs) > 0 {
			impure[fn] = fmt.Sprintf("%s at %s", vs[0].msg, pass.Fset.Position(vs[0].pos))
		}
	}
	// Iterate functions in source order so the fixpoint (and with it the
	// reason chains that end up in exported facts) is deterministic.
	ordered := make([]*types.Func, 0, len(decls))
	for fn := range decls {
		ordered = append(ordered, fn)
	}
	sort.Slice(ordered, func(i, j int) bool { return decls[ordered[i]].Pos() < decls[ordered[j]].Pos() })
	for changed := true; changed; {
		changed = false
		for _, fn := range ordered {
			fd := decls[fn]
			if _, done := impure[fn]; done {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if reason := calleeImpurity(pass, call, impure); reason != "" {
					if waived[pass.Fset.Position(call.Pos()).Line] {
						return true
					}
					impure[fn] = trimReason(fmt.Sprintf("calls %s: %s", resumeCalleeName(pass, call), reason))
					changed = true
					return false
				}
				return true
			})
		}
	}
	for fn, reason := range impure {
		pass.ExportObjectFact(fn, &PurityFact{Reason: trimReason(reason)})
	}

	// Diagnostics: walk the closure of every purity root and report the
	// direct violations (and impure cross-package calls) it reaches.
	reported := map[token.Pos]bool{}
	for _, root := range purityRoots(pass, decls) {
		for fn := range reachableFuncs(pass, decls, root) {
			for _, v := range direct[fn] {
				if reported[v.pos] {
					continue
				}
				reported[v.pos] = true
				pass.Reportf(v.pos, "%s on the checkpoint/restore/replay path: resumed runs would diverge from uninterrupted ones (waive with //resumepure:ok <reason>)", v.msg)
			}
		}
	}
	return nil
}

// purityRoots collects the functions whose call closure must stay
// deterministic: statecover save/load methods and //semsim:resumepure
// marked functions.
func purityRoots(pass *Pass, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	var roots []*types.Func
	for _, r := range snapshotRoots(pass) {
		if r.json {
			continue
		}
		named := r.tn.Type().(*types.Named)
		for _, name := range []string{r.save, r.load} {
			if fn := methodByName(named, name); fn != nil {
				roots = append(roots, fn)
			}
		}
	}
	for fn, fd := range decls {
		if fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "semsim:resumepure" {
				roots = append(roots, fn)
				break
			}
		}
	}
	return roots
}

// reachableFuncs computes the same-package static call closure of
// entry (the statecover reachability, shared here).
func reachableFuncs(pass *Pass, decls map[*types.Func]*ast.FuncDecl, entry *types.Func) map[*types.Func]bool {
	sc := &stateCoverer{pass: pass, decls: decls}
	return sc.reachable(entry)
}

// resumeViolations walks one function body and collects its direct
// determinism hazards, honoring same-line waivers. Cross-package calls
// to functions with an impure PurityFact count as direct violations at
// the call site — that is where the fact engine stitches packages
// together.
func resumeViolations(pass *Pass, fd *ast.FuncDecl, mutables map[*types.Var]bool, waived map[int]bool) []resumeViolation {
	var out []resumeViolation
	add := func(pos token.Pos, format string, args ...any) {
		if waived[pass.Fset.Position(pos).Line] {
			return
		}
		out = append(out, resumeViolation{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if name := wallClockCall(pass, e); name != "" {
				add(e.Pos(), "wall-clock read time.%s", name)
			}
			if callee := calleeFunc(pass, e); callee != nil && callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
				var fact PurityFact
				if pass.ImportObjectFact(callee, &fact) {
					add(e.Pos(), "call to %s, which is not resume-pure (%s)", resumeCalleeName(pass, e), fact.Reason)
				}
			}
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if p := obj.Pkg().Path(); p == "math/rand" || p == "math/rand/v2" {
				add(e.Pos(), "use of %s.%s", p, obj.Name())
				return true
			}
			if v, ok := obj.(*types.Var); ok && isPackageLevel(v) {
				if v.Pkg() == pass.Pkg {
					if mutables[v] {
						add(e.Pos(), "access to mutable global %s", v.Name())
					}
				} else if !pathHasSuffixAny(v.Pkg().Path(), resumepurityExemptPkgs) {
					var fact GlobalFact
					if pass.ImportObjectFact(v, &fact) && fact.Mutable {
						add(e.Pos(), "access to mutable global %s.%s", v.Pkg().Name(), v.Name())
					}
				}
			}
		case *ast.RangeStmt:
			t := pass.Info.TypeOf(e.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if bad, pos, why := orderSensitive(pass, e, fd.Body); bad {
				add(pos, "map iteration order feeds restored state (%s)", why)
			}
		}
		return true
	})
	return out
}

// wallClockCall reports the time-package function name when the call
// reads the wall clock ("" otherwise).
func wallClockCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return ""
	}
	switch obj.Name() {
	case "Now", "Since", "Until":
		return obj.Name()
	}
	return ""
}

// calleeImpurity resolves a call's static callee and returns its
// impurity reason: same-package callees from the local fixpoint map,
// cross-package callees from their PurityFact ("" when pure or
// unresolvable).
func calleeImpurity(pass *Pass, call *ast.CallExpr, impure map[*types.Func]string) string {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	if callee.Pkg() == pass.Pkg {
		return impure[callee]
	}
	var fact PurityFact
	if pass.ImportObjectFact(callee, &fact) {
		return fact.Reason
	}
	return ""
}

// resumeCalleeName renders a call target for diagnostics.
func resumeCalleeName(pass *Pass, call *ast.CallExpr) string {
	if callee := calleeFunc(pass, call); callee != nil {
		if recv := callee.Type().(*types.Signature).Recv(); recv != nil {
			if name := recvTypeName(recv.Type()); name != "" {
				return fmt.Sprintf("%s.%s.%s", callee.Pkg().Name(), name, callee.Name())
			}
		}
		return fmt.Sprintf("%s.%s", callee.Pkg().Name(), callee.Name())
	}
	return types.ExprString(call.Fun)
}

// trimReason bounds reason-chain growth through deep call stacks.
func trimReason(reason string) string {
	const max = 300
	if len(reason) > max {
		return reason[:max] + "..."
	}
	return reason
}

// isPackageLevel reports whether a variable is declared at package
// scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// mutableGlobals identifies the package-level variables whose value can
// change after initialization: assigned (or address-taken, or
// incremented) outside their declaration and outside init functions, or
// containing sync/atomic machinery that mutates through method calls.
func mutableGlobals(pass *Pass) map[*types.Var]bool {
	mutable := map[*types.Var]bool{}
	globals := map[*types.Var]bool{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok {
			globals[v] = true
			if typeContainsSync(v.Type(), map[types.Type]bool{}) {
				mutable[v] = true
			}
		}
	}
	markRoot := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				if v, ok := pass.Info.Uses[x].(*types.Var); ok && globals[v] {
					mutable[v] = true
				}
				return
			default:
				return
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// init runs exactly once, before any resume path can observe
			// the variable: initialization-time writes are not mutation.
			isInit := fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.AssignStmt:
					if isInit {
						return true
					}
					for _, lhs := range e.Lhs {
						markRoot(lhs)
					}
				case *ast.IncDecStmt:
					if isInit {
						return true
					}
					markRoot(e.X)
				case *ast.UnaryExpr:
					if e.Op == token.AND {
						markRoot(e.X)
					}
				}
				return true
			})
		}
	}
	return mutable
}

// typeContainsSync reports whether a type transitively embeds sync or
// sync/atomic state (mutexes, sync.Map, atomic counters), which mutates
// through method calls no assignment scan can see.
func typeContainsSync(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if pkg := u.Obj().Pkg(); pkg != nil {
			if p := pkg.Path(); p == "sync" || p == "sync/atomic" {
				return true
			}
		}
		return typeContainsSync(u.Underlying(), seen)
	case *types.Pointer:
		return typeContainsSync(u.Elem(), seen)
	case *types.Slice:
		return typeContainsSync(u.Elem(), seen)
	case *types.Array:
		return typeContainsSync(u.Elem(), seen)
	case *types.Map:
		return typeContainsSync(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeContainsSync(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// resumepureWaivers collects the lines carrying a `//resumepure:ok
// <reason>` comment; a waiver without a reason is itself a diagnostic.
func resumepureWaivers(pass *Pass) map[int]bool {
	waived := map[int]bool{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "resumepure:ok") {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, "resumepure:ok"))
				if reason == "" {
					pass.Reportf(c.Pos(), "resumepure:ok waiver without a reason: say why this nondeterminism cannot perturb a resumed trajectory")
					continue
				}
				waived[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return waived
}
