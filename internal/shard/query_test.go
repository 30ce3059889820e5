package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dsks"
)

// TestQueryCheckOrder pins the order in which DB, View and MultiView turn
// a query away: the query's own Validate first, then a closed view, then
// the expansion's position and terms. So one query fails the same way on
// one node and on any number of shards, and a nil query (a nil interface
// or a nil pointer to a family) is an error on every one of them, never a
// panic.
func TestQueryCheckOrder(t *testing.T) {
	db, sets, ds := equivFixture(t, []int{1, 4}, dsks.Options{})
	ctx := context.Background()
	good := wideQuery(t, ds)
	noTerms := good
	noTerms.Terms = nil
	badEdge := good
	badEdge.Pos.Edge = dsks.EdgeID(ds.Graph.NumEdges())

	type target struct {
		name   string
		query  func(context.Context, dsks.Query) (dsks.Result, error)
		closed bool
	}
	targets := []target{{name: "DB", query: db.Query}}
	for _, closed := range []bool{false, true} {
		state := "open "
		if closed {
			state = "closed "
		}
		v, err := db.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(v.Close)
		views := []target{{name: "View", query: v.Query}}
		closers := []func(){v.Close}
		for _, set := range sets {
			mv, err := set.View(ctx)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mv.Close)
			views = append(views, target{name: fmt.Sprintf("%d-shard MultiView", len(set.shards)), query: mv.Query})
			closers = append(closers, mv.Close)
		}
		for i, w := range views {
			if closed {
				closers[i]()
			}
			w.name, w.closed = state+w.name, closed
			targets = append(targets, w)
		}
	}

	for _, tg := range targets {
		for _, c := range []struct {
			q    dsks.Query
			want func(error) bool
			what string
		}{
			{nil, func(err error) bool { return err != nil }, "an error"},
			{(*dsks.SKQuery)(nil), func(err error) bool { return err != nil }, "an error"},
			{(*dsks.DivQuery)(nil), func(err error) bool { return err != nil }, "an error"},
			{(*dsks.KNNQuery)(nil), func(err error) bool { return err != nil }, "an error"},
			{(*dsks.RankedQuery)(nil), func(err error) bool { return err != nil }, "an error"},
			{(*dsks.CollectiveQuery)(nil), func(err error) bool { return err != nil }, "an error"},
			{noTerms, func(err error) bool {
				return err != nil && err.Error() == noTerms.Validate().Error()
			}, "the Validate error"},
			{badEdge, func(err error) bool {
				if tg.closed {
					return errors.Is(err, dsks.ErrViewClosed)
				}
				return errors.Is(err, dsks.ErrUnknownEdge)
			}, "ErrViewClosed on a closed view, else ErrUnknownEdge"},
			{good, func(err error) bool {
				if tg.closed {
					return errors.Is(err, dsks.ErrViewClosed)
				}
				return err == nil
			}, "ErrViewClosed on a closed view, else no error"},
		} {
			if _, err := tg.query(ctx, c.q); !c.want(err) {
				t.Errorf("%s: Query(%T) err = %v, want %s", tg.name, c.q, err, c.what)
			}
		}
	}
}
