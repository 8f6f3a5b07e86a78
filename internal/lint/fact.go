package lint

import (
	"go/types"
	"reflect"
)

// Fact is a typed datum one analyzer attaches to a package-level object
// while analyzing the package that owns it, for downstream packages to
// consult — mirroring x/tools/go/analysis.Fact. Facts are how a pass sees across package
// boundaries without whole-program analysis: each package is analyzed
// once, in dependency order, and summarizes what importers need to know
// (a function is impure, a struct type is fully serialized, a global is
// mutated) as facts on its exported objects.
//
// Concrete fact types are pointers to structs. Facts never leave the
// process: the driver keeps them in one FactStore for the whole run.
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// factKey addresses one fact in a store. obj is the intra-package
// object key from objKey and typ the concrete fact type's name, so an
// analyzer can attach facts of several types to the same object.
type factKey struct {
	pkg string // package import path
	obj string // objKey result
	typ string // concrete fact type, e.g. "*lint.PurityFact"
}

// FactStore holds the facts exported so far in one analysis session.
// The module driver (and the fixture harness) creates one store and
// threads it through every package in dependency order, so a package's
// facts are in the store before any importer is analyzed.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]Fact{}}
}

func (s *FactStore) put(pkg, obj string, f Fact) {
	s.m[factKey{pkg: pkg, obj: obj, typ: factTypeName(f)}] = f
}

func (s *FactStore) get(pkg, obj string, ptr Fact) bool {
	f, ok := s.m[factKey{pkg: pkg, obj: obj, typ: factTypeName(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// factTypeName names a fact's concrete type for keying.
func factTypeName(f Fact) string { return reflect.TypeOf(f).String() }

// objKey gives a package-local, export-data-stable key for the objects
// facts may be attached to: package-level named entities ("Name") and
// methods ("Recv.Name"). Struct fields and local objects are not
// addressable (attach facts to the owning named type instead). The
// second result reports whether the object is keyable.
func objKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			name := recvTypeName(recv.Type())
			if name == "" {
				return "", false
			}
			return name + "." + o.Name(), true
		}
		return o.Name(), true
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Name(), true
		}
	}
	return "", false
}

// recvTypeName extracts the named receiver type's name, dereferencing
// one pointer ("" when the receiver is not a named type).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ExportObjectFact attaches a fact to an object of the current package.
// Objects of other packages (or non-package-level objects) are silently
// not exportable, mirroring x/tools' contract that facts flow strictly
// downstream.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key, ok := objKey(obj)
	if !ok {
		return
	}
	p.store.put(obj.Pkg().Path(), key, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj into
// ptr, reporting whether one was found. It resolves facts exported by
// any earlier package of the session (including the current one).
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := objKey(obj)
	if !ok {
		return false
	}
	return p.store.get(obj.Pkg().Path(), key, ptr)
}
