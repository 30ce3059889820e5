package server

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"dsks"
	"dsks/internal/engine"
	"dsks/internal/shard"
	"dsks/internal/storage"
	"dsks/internal/wal"
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

// TestOptionsSurface pins the exported option fields, 28 in all, so a
// knob added or removed shows up in review. dsks.Options is engine.Options,
// declared once; the engine's own knobs (a fixed frame count, an oracle
// file) are arguments, not fields; and the knobs only tests vary — the
// log's batch window, cap and segment size, the pool's retry policy —
// are unexported.
func TestOptionsSurface(t *testing.T) {
	if a, b := reflect.TypeOf(dsks.Options{}), reflect.TypeOf(engine.Options{}); a != b {
		t.Errorf("dsks.Options is %v and engine.Options is %v: declare the options once", a, b)
	}
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(dsks.Options{}), []string{"Index", "BufferFraction", "IOLatency", "PartitionCuts",
			"Checksums", "WALDir", "Oracle", "Landmarks", "OracleSeed"}},
		{reflect.TypeOf(shard.Options{}), []string{"DB", "Partial", "Replicas", "MaxStaleness", "HedgeAfter",
			"LegRetries", "DownAfter", "DownCooldown", "Seed"}},
		{reflect.TypeOf(Config{}), []string{"Addr", "MaxInflight", "QueueDepth", "DefaultTimeout", "MaxTimeout",
			"CacheSize", "DegradeAfter", "BreakAfter", "BreakerCooldown"}},
		{reflect.TypeOf(wal.Options{}), []string{"Metrics"}},
	} {
		if got := exportedFields(tc.typ); !slices.Equal(got, tc.want) {
			t.Errorf("%v has exported fields %v, want %v", tc.typ, got, tc.want)
		}
	}
	if _, ok := reflect.TypeOf((*storage.BufferPool)(nil)).MethodByName("SetRetry"); ok {
		t.Error("storage.BufferPool exports SetRetry, which only its tests call")
	}
}

// exportedFields lists the exported field names of struct type typ in
// declaration order.
func exportedFields(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			names = append(names, f.Name)
		}
	}
	return names
}

// methods lists the exported method names of typ in sorted order.
func methods(typ reflect.Type) []string {
	names := make([]string, typ.NumMethod())
	for i := range names {
		names[i] = typ.Method(i).Name
	}
	return names
}
