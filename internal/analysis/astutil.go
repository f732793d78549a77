package analysis

import "go/types"

// Shared type-query helpers for the analyzers.

// NamedTypeIs reports whether t (after pointer unwrapping) is the named
// type pkgpath.name.
func NamedTypeIs(t types.Type, pkgpath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgpath
}
