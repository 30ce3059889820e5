package storage

import (
	"errors"
	"testing"

	"dsks/internal/fault"
)

// failing returns an injector that permanently fails every operation
// cfg matches.
func failing(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	cfg.EveryN = 1
	in, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInjectorReadFails(t *testing.T) {
	f := NewPageFile()
	pool := NewBufferPool(f, 2, nil)
	p, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID()
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	f.SetInjector(failing(t, fault.Config{Op: fault.OpRead}))
	if _, err := pool.Get(id); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Get under fault = %v, want injected error", err)
	}
	// Clearing the injector restores service.
	f.SetInjector(nil)
	if _, err := pool.Get(id); err != nil {
		t.Errorf("Get after clearing fault = %v", err)
	}
}

func TestInjectorWriteFails(t *testing.T) {
	f := NewPageFile()
	pool := NewBufferPool(f, 2, nil)
	p, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pool.MarkDirty(p.ID())
	f.SetInjector(failing(t, fault.Config{Op: fault.OpWrite}))
	if err := pool.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Flush under fault = %v, want injected error", err)
	}
}

func TestInjectorSelectivePage(t *testing.T) {
	f := NewPageFile()
	pool := NewBufferPool(f, 1, nil)
	a, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	aid := a.ID()
	b, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	bid := b.ID()
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	f.SetInjector(failing(t, fault.Config{Op: fault.OpRead, Pages: []uint32{uint32(bid)}}))
	if _, err := pool.Get(aid); err != nil {
		t.Errorf("healthy page failed: %v", err)
	}
	if _, err := pool.Get(bid); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("faulty page returned %v", err)
	}
}

func TestPoolEvictionPersistsOnDisk(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 1, nil) // single frame: every access evicts
	a, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	aid := a.ID()
	a.PutUint32(0, 7)
	pool.MarkDirty(aid)
	b, err := pool.Allocate() // evicts a to the page file
	if err != nil {
		t.Fatal(err)
	}
	b.PutUint32(0, 8)
	pool.MarkDirty(b.ID())
	got, err := pool.Get(aid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint32(0) != 7 {
		t.Fatalf("evicted page lost on disk: %d", got.Uint32(0))
	}
}
