package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// Statecover machine-checks the bit-identical-resume guarantee at its
// weakest point: a mutable field added to a snapshot-rooted struct that
// the checkpoint/restore pair silently forgets. A struct opts in with a
// doc-comment marker:
//
//	//statecover:root save=Checkpoint load=Restore   (method-pair root)
//	//statecover:root save=json                      (encoding/json root)
//
// For a method-pair root, every field must be accounted for: accessed
// on the save path (serialized), accessed on the load path (rebuilt —
// the path is the transitive same-package call closure of the load
// method, so a restore that ends in a full refresh covers everything
// the refresh rebuilds), or explicitly waived on the field with
//
//	//statecover:immutable <reason>   set at construction, never mutated
//	//statecover:derived <reason>     rebuilt or re-established elsewhere
//
// The reason is mandatory: the waiver is the audit trail for why a
// field may legitimately escape the snapshot. Unaccounted fields are
// diagnostics — every future field is born machine-checked.
//
// For a JSON root, a field is covered when encoding/json serializes it:
// unexported fields and json:"-" fields are diagnostics unless waived.
// Field types that are named structs must themselves be fully
// serialized; that property is computed per package and exported as a
// SerialFact on the type, so a root in one package (the jobs checkpoint
// envelope) sees through payload types of another (solver.Checkpoint,
// solver.Stats) without re-analyzing them.
var Statecover = &Analyzer{
	Name: "statecover",
	Run:  runStatecover,
}

// SerialFact records whether a package-level struct type is fully
// serialized by encoding/json: all fields exported and unskipped (or
// explicitly waived), recursively through named struct field types. It
// is exported for every exported struct type so downstream snapshot
// envelopes can validate their payload fields.
type SerialFact struct {
	Complete bool
	Reason   string // when !Complete, the offending field
}

// AFact marks SerialFact as a fact.
func (*SerialFact) AFact() {}

func (f *SerialFact) String() string {
	if f.Complete {
		return "json-complete"
	}
	return "json-incomplete: " + f.Reason
}

// rootSpec is one parsed //statecover:root marker.
type rootSpec struct {
	tn   *types.TypeName
	pos  token.Pos
	save string // method name, or "" for JSON roots
	load string // method name, or "" for JSON roots
	json bool
}

// fieldWaiver is one parsed //statecover:immutable|derived comment,
// attached to the struct field it annotates.
type fieldWaiver struct {
	kind   string // "immutable" or "derived"
	reason string
}

// stateCoverer carries the per-package analysis state.
type stateCoverer struct {
	pass    *Pass
	waived  map[*types.Var]*fieldWaiver
	decls   map[*types.Func]*ast.FuncDecl
	jsonMem map[*types.Named]*SerialFact
}

func runStatecover(pass *Pass) error {
	sc := &stateCoverer{
		pass:    pass,
		waived:  map[*types.Var]*fieldWaiver{},
		decls:   funcDecls(pass),
		jsonMem: map[*types.Named]*SerialFact{},
	}
	sc.collectWaivers()
	roots := snapshotRoots(pass)
	for _, r := range roots {
		if r.json {
			sc.checkJSONRoot(r)
		} else {
			sc.checkMethodRoot(r)
		}
	}
	// Export serialization facts for every exported package-level struct
	// type, so downstream packages can validate envelope payloads.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		fact := sc.structComplete(named)
		pass.ExportObjectFact(tn, &SerialFact{Complete: fact.Complete, Reason: fact.Reason})
	}
	return nil
}

// funcDecls maps the package's function objects to their declarations.
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// snapshotRoots parses every //statecover:root marker in the package.
// Malformed markers are reported and skipped. Shared with resumepurity,
// which derives its purity roots from the same registrations.
func snapshotRoots(pass *Pass) []rootSpec {
	var roots []rootSpec
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				marker, ok := rootMarker(doc)
				if !ok {
					continue
				}
				tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				// Diagnostics anchor at the type name, not the marker
				// comment, so `// want` fixtures can assert them.
				pos := ts.Name.Pos()
				r, err := parseRootMarker(tn, pos, marker)
				if err != "" {
					pass.Reportf(pos, "%s", err)
					continue
				}
				if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
					pass.Reportf(pos, "statecover:root marker on %s, which is not a struct type", tn.Name())
					continue
				}
				roots = append(roots, r)
			}
		}
	}
	return roots
}

// rootMarker extracts the argument text of a //statecover:root line
// from a doc comment (false when absent).
func rootMarker(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, "statecover:root") {
			return strings.TrimSpace(strings.TrimPrefix(text, "statecover:root")), true
		}
	}
	return "", false
}

// parseRootMarker parses "save=X load=Y" or "save=json" marker args.
func parseRootMarker(tn *types.TypeName, pos token.Pos, args string) (rootSpec, string) {
	r := rootSpec{tn: tn, pos: pos}
	for _, kv := range strings.Fields(args) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || v == "" {
			return r, fmt.Sprintf("malformed statecover:root argument %q (want save=<Method> load=<Method> or save=json)", kv)
		}
		switch k {
		case "save":
			r.save = v
		case "load":
			r.load = v
		default:
			return r, fmt.Sprintf("unknown statecover:root key %q (want save/load)", k)
		}
	}
	if r.save == "json" {
		r.json = true
		if r.load != "" {
			return r, "statecover:root save=json takes no load method (encoding/json is the round trip)"
		}
		return r, ""
	}
	if r.save == "" || r.load == "" {
		return r, "statecover:root needs both save=<Method> and load=<Method> (or save=json)"
	}
	return r, ""
}

// collectWaivers walks every struct declaration, parses the
// //statecover:immutable|derived field comments, and validates them
// (known kind, mandatory reason). Reported problems anchor at the field
// so fixtures can assert them.
func (sc *stateCoverer) collectWaivers() {
	for _, f := range sc.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				w, bad := parseFieldWaiver(field)
				if bad != "" {
					sc.pass.Reportf(field.Pos(), "%s", bad)
					// The waiver intent is clear even when malformed;
					// honor it so the field gets one diagnostic, not two.
					w = &fieldWaiver{kind: "invalid"}
				}
				if w == nil {
					continue
				}
				for _, name := range field.Names {
					if v, ok := sc.pass.Info.Defs[name].(*types.Var); ok {
						sc.waived[v] = w
					}
				}
			}
			return true
		})
	}
}

// parseFieldWaiver extracts a statecover waiver from a field's doc or
// line comment. The second result is a non-empty diagnostic message for
// malformed waivers.
func parseFieldWaiver(field *ast.Field) (*fieldWaiver, string) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "statecover:") {
				continue
			}
			rest := strings.TrimPrefix(text, "statecover:")
			kind, reason, _ := strings.Cut(rest, " ")
			switch kind {
			case "immutable", "derived":
			case "root":
				continue // type markers handled by snapshotRoots
			default:
				return nil, fmt.Sprintf("unknown statecover waiver %q (want //statecover:immutable <reason> or //statecover:derived <reason>)", kind)
			}
			reason = strings.TrimSpace(reason)
			if reason == "" {
				return nil, fmt.Sprintf("statecover:%s waiver without a reason: say why this field may escape the snapshot", kind)
			}
			return &fieldWaiver{kind: kind, reason: reason}, ""
		}
	}
	return nil, ""
}

// checkMethodRoot verifies one save/load method-pair root: every field
// of the struct must be accessed by the save path, accessed by the load
// path, or waived.
func (sc *stateCoverer) checkMethodRoot(r rootSpec) {
	named := r.tn.Type().(*types.Named)
	st := named.Underlying().(*types.Struct)
	saveFn := methodByName(named, r.save)
	loadFn := methodByName(named, r.load)
	if saveFn == nil {
		sc.pass.Reportf(r.pos, "statecover:root save method %s.%s does not exist", r.tn.Name(), r.save)
	}
	if loadFn == nil {
		sc.pass.Reportf(r.pos, "statecover:root load method %s.%s does not exist", r.tn.Name(), r.load)
	}
	if saveFn == nil || loadFn == nil {
		return
	}
	accessed := map[*types.Var]bool{}
	for _, entry := range []*types.Func{saveFn, loadFn} {
		for fn := range sc.reachable(entry) {
			sc.markFieldAccesses(fn, st, accessed)
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if accessed[field] || sc.waived[field] != nil {
			continue
		}
		sc.pass.Reportf(field.Pos(),
			"field %s of snapshot root %s is neither serialized by %s nor rebuilt by %s: a restored simulation would silently diverge; serialize it, rebuild it on restore, or waive with //statecover:immutable <reason> or //statecover:derived <reason>",
			field.Name(), r.tn.Name(), r.save, r.load)
	}
}

// methodByName finds a declared method (value or pointer receiver) on a
// named type.
func methodByName(named *types.Named, name string) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// reachable computes the same-package static call closure of entry:
// every function or method of this package transitively called from it.
// Calls through function values and interfaces are not resolved (the
// closure is a lower bound, which only makes the pass stricter).
func (sc *stateCoverer) reachable(entry *types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{entry: true}
	work := []*types.Func{entry}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		fd := sc.decls[fn]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(sc.pass, call)
			if callee == nil || callee.Pkg() != sc.pass.Pkg || seen[callee] {
				return true
			}
			seen[callee] = true
			work = append(work, callee)
			return true
		})
	}
	return seen
}

// calleeFunc resolves a call expression to its static callee function
// object (nil for builtins, conversions, and dynamic calls).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// markFieldAccesses records which fields of st the body of fn touches,
// through any expression whose selection resolves to one of st's field
// objects.
func (sc *stateCoverer) markFieldAccesses(fn *types.Func, st *types.Struct, accessed map[*types.Var]bool) {
	fd := sc.decls[fn]
	if fd == nil {
		return
	}
	fields := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := sc.pass.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if v, ok := s.Obj().(*types.Var); ok && fields[v] {
			accessed[v] = true
		}
		return true
	})
}

// checkJSONRoot verifies one encoding/json root: every field must be
// visible to the encoder (exported, not json:"-") or waived, and field
// types that are named structs must themselves be fully serialized.
func (sc *stateCoverer) checkJSONRoot(r rootSpec) {
	st := r.tn.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if sc.waived[field] != nil {
			continue
		}
		if !field.Exported() {
			sc.pass.Reportf(field.Pos(),
				"unexported field %s of JSON snapshot root %s is invisible to encoding/json and will be lost on resume; export it or waive with //statecover:immutable <reason> or //statecover:derived <reason>",
				field.Name(), r.tn.Name())
			continue
		}
		if jsonSkipped(st.Tag(i)) {
			sc.pass.Reportf(field.Pos(),
				"field %s of JSON snapshot root %s is excluded by its json:\"-\" tag and will be lost on resume; include it or waive with //statecover:immutable <reason> or //statecover:derived <reason>",
				field.Name(), r.tn.Name())
			continue
		}
		if named := payloadStruct(field.Type()); named != nil {
			if fact := sc.structComplete(named); !fact.Complete {
				sc.pass.Reportf(field.Pos(),
					"field %s of JSON snapshot root %s has type %s, which is not fully serialized (%s)",
					field.Name(), r.tn.Name(), named.Obj().Name(), fact.Reason)
			}
		}
	}
}

// jsonSkipped reports whether a struct tag excludes the field from
// encoding/json.
func jsonSkipped(tag string) bool {
	name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
	return name == "-"
}

// payloadStruct unwraps pointers, slices, arrays and map values down to
// a named struct type (nil when the element is not one).
func payloadStruct(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); ok {
				return u
			}
			return nil
		default:
			return nil
		}
	}
}

// structComplete decides whether a named struct type is fully
// serialized by encoding/json. Local types are analyzed structurally
// (waived fields count as accounted); types of other packages are
// resolved through their SerialFact — absent facts (standard library,
// unanalyzed code) are assumed complete, since the pass cannot prove
// otherwise.
func (sc *stateCoverer) structComplete(named *types.Named) *SerialFact {
	tn := named.Obj()
	if tn.Pkg() != sc.pass.Pkg {
		var fact SerialFact
		if sc.pass.ImportObjectFact(tn, &fact) {
			return &fact
		}
		return &SerialFact{Complete: true}
	}
	if fact, ok := sc.jsonMem[named]; ok {
		return fact
	}
	// Break recursion on self-referential types: a cycle is complete
	// unless some concrete field proves otherwise.
	fact := &SerialFact{Complete: true}
	sc.jsonMem[named] = fact
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return fact
	}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if sc.waived[field] != nil {
			continue
		}
		if !field.Exported() {
			*fact = SerialFact{Reason: fmt.Sprintf("field %s.%s is unexported and carries no statecover waiver", named.Obj().Name(), field.Name())}
			return fact
		}
		if jsonSkipped(st.Tag(i)) {
			*fact = SerialFact{Reason: fmt.Sprintf("field %s.%s is excluded by json:\"-\" and carries no statecover waiver", named.Obj().Name(), field.Name())}
			return fact
		}
		if inner := payloadStruct(field.Type()); inner != nil && inner != named {
			if innerFact := sc.structComplete(inner); !innerFact.Complete {
				*fact = SerialFact{Reason: fmt.Sprintf("field %s.%s: %s", named.Obj().Name(), field.Name(), innerFact.Reason)}
				return fact
			}
		}
	}
	return fact
}
