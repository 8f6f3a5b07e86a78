package lint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// Fact is a typed datum one analyzer attaches to a package-level object
// while analyzing the package that owns it, for downstream packages to
// consult — mirroring x/tools/go/analysis.Fact. Facts are how a pass sees across package
// boundaries without whole-program analysis: each package is analyzed
// once, in dependency order, and summarizes what importers need to know
// (a function is impure, a struct type is fully serialized, a global is
// mutated) as facts on its exported objects.
//
// Concrete fact types must be pointers to gob-encodable structs and must
// be listed in their Analyzer's FactTypes so the vet-tool driver can
// serialize them into .vetx files between `go vet` invocations; the
// standalone module driver passes them in memory.
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// factKey addresses one fact in a store. obj is the intra-package
// object key from objKey and typ the concrete fact type's name, so an
// analyzer can attach facts of several types to the same object.
type factKey struct {
	pkg string // package import path, normalized
	obj string // objKey result
	typ string // concrete fact type, e.g. "*lint.PurityFact"
}

// FactStore holds the facts exported so far in one analysis session.
// The module driver creates one store and threads it through every
// package in dependency order; the vet-tool driver fills one from the
// .vetx files of the package's dependencies and serializes the
// current package's additions into its own .vetx output.
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

// factTypeName names a fact's concrete type for keying and wire
// identification.
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
	if p.store == nil || obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key, ok := objKey(obj)
	if !ok {
		return
	}
	p.store.put(normalizePath(obj.Pkg().Path()), key, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj into
// ptr, reporting whether one was found. It resolves facts exported by
// any earlier package of the session (including the current one).
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if p.store == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := objKey(obj)
	if !ok {
		return false
	}
	return p.store.get(normalizePath(obj.Pkg().Path()), key, ptr)
}

// wireFact is the serialized form of one fact in a .vetx file. The Fact
// field is an interface, so gob records the concrete type; every fact
// type is registered from the analyzers' FactTypes declarations.
type wireFact struct {
	Obj  string // objKey
	Fact Fact
}

var registerFactsOnce sync.Once

// registerFactTypes registers every declared fact type with gob, once.
func registerFactTypes() {
	registerFactsOnce.Do(func() {
		for _, a := range All() {
			for _, f := range a.FactTypes {
				gob.Register(f)
			}
		}
	})
}

// EncodeFacts serializes the facts the store holds for one package into
// the .vetx wire format (deterministically ordered). An empty package
// yields an empty (zero-length) blob so untouched .vetx files stay
// valid.
func (s *FactStore) EncodeFacts(pkgPath string) ([]byte, error) {
	registerFactTypes()
	pkgPath = normalizePath(pkgPath)
	var facts []wireFact
	for k, f := range s.m {
		if k.pkg == pkgPath {
			facts = append(facts, wireFact{Obj: k.obj, Fact: f})
		}
	}
	if len(facts) == 0 {
		return nil, nil
	}
	sort.Slice(facts, func(i, j int) bool {
		if facts[i].Obj != facts[j].Obj {
			return facts[i].Obj < facts[j].Obj
		}
		return factTypeName(facts[i].Fact) < factTypeName(facts[j].Fact)
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(facts); err != nil {
		return nil, fmt.Errorf("lint: encoding facts for %s: %w", pkgPath, err)
	}
	return buf.Bytes(), nil
}

// DecodeFacts merges a .vetx blob produced by EncodeFacts into the
// store under the given package path. Zero-length blobs are valid and
// empty.
func (s *FactStore) DecodeFacts(pkgPath string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	registerFactTypes()
	var facts []wireFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&facts); err != nil {
		return fmt.Errorf("lint: decoding facts for %s: %w", pkgPath, err)
	}
	pkgPath = normalizePath(pkgPath)
	for _, wf := range facts {
		if wf.Fact == nil {
			continue
		}
		s.put(pkgPath, wf.Obj, wf.Fact)
	}
	return nil
}
