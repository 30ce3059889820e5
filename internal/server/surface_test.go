package server

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"dsks"
	"dsks/internal/shard"
)

// TestQuerySurface pins the public query surface: every family runs
// through one Query method per type, so no method of DB, View or
// MultiView is named Search…, except the View and MultiView
// SearchDiversified that the frozen benchmark (bench/trace.go) calls, and
// QueryView is exactly Query, NetworkDistance and Close.
func TestQuerySurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		kept string // the one Search method allowed, if any
	}{
		{typ: reflect.TypeOf((*dsks.DB)(nil))},
		{typ: reflect.TypeOf((*dsks.View)(nil)), kept: "SearchDiversified"},
		{typ: reflect.TypeOf((*shard.MultiView)(nil)), kept: "SearchDiversified"},
	} {
		names := methods(tc.typ)
		for _, name := range names {
			if strings.HasPrefix(name, "Search") && name != tc.kept {
				t.Errorf("%v has method %s: run the family through Query", tc.typ, name)
			}
		}
		if !slices.Contains(names, "Query") {
			t.Errorf("%v has no Query method", tc.typ)
		}
	}
	names := methods(reflect.TypeOf((*QueryView)(nil)).Elem())
	if want := []string{"Close", "NetworkDistance", "Query"}; !slices.Equal(names, want) {
		t.Errorf("QueryView methods = %v, want %v", names, want)
	}
}

// methods lists the exported method names of typ in sorted order.
func methods(typ reflect.Type) []string {
	names := make([]string, typ.NumMethod())
	for i := range names {
		names[i] = typ.Method(i).Name
	}
	return names
}
