package fault

import (
	"bytes"
	"errors"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestErrorIsAndAs(t *testing.T) {
	err := error(&Error{Op: OpRead, Page: 7, Transient: true})
	if !errors.Is(err, ErrInjected) {
		t.Error("errors.Is(err, ErrInjected) = false")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Page != 7 || fe.Op != OpRead {
		t.Errorf("errors.As mismatch: %+v", fe)
	}
	if !IsTransient(err) {
		t.Error("IsTransient = false for transient fault")
	}
	if IsTransient(&Error{Op: OpWrite, Page: 1}) {
		t.Error("IsTransient = true for permanent fault")
	}
	if IsTransient(errors.New("other")) {
		t.Error("IsTransient = true for foreign error")
	}
}

func TestEveryNTrigger(t *testing.T) {
	in := mustNew(t, Config{Op: OpRead, EveryN: 3})
	var failed int
	for i := 0; i < 9; i++ {
		if err := in.BeforeOp(OpRead, uint32(i)); err != nil {
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("every-3 over 9 ops fired %d times, want 3", failed)
	}
	// Writes do not match an op-restricted campaign.
	if err := in.BeforeOp(OpWrite, 1); err != nil {
		t.Fatalf("write faulted under read-only campaign: %v", err)
	}
}

func TestMaxFaultsBoundsTheOutage(t *testing.T) {
	in := mustNew(t, Config{EveryN: 1, MaxFaults: 5})
	var failed int
	for i := 0; i < 20; i++ {
		if err := in.BeforeOp(OpRead, 1); err != nil {
			failed++
		}
	}
	if failed != 5 {
		t.Fatalf("max=5 fired %d faults", failed)
	}
	if !in.Exhausted() {
		t.Error("Exhausted() = false after hitting MaxFaults")
	}
	if got := in.Fired(); got != 5 {
		t.Errorf("Fired() = %d, want 5", got)
	}
}

func TestPageTargeting(t *testing.T) {
	in := mustNew(t, Config{EveryN: 1, Pages: []uint32{4}})
	if err := in.BeforeOp(OpRead, 3); err != nil {
		t.Fatalf("untargeted page faulted: %v", err)
	}
	if err := in.BeforeOp(OpRead, 4); err == nil {
		t.Fatal("targeted page did not fault")
	}
}

func TestProbabilityIsDeterministic(t *testing.T) {
	run := func() []bool {
		in := mustNew(t, Config{Probability: 0.5, Seed: 42})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.BeforeOp(OpRead, uint32(i)) != nil
		}
		return out
	}
	a, b := run(), run()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identically-seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times, want a genuine mixture", fired, len(a))
	}
}

func TestFlipBitCorruptsExactlyOneBit(t *testing.T) {
	in := mustNew(t, Config{EveryN: 2, Mode: ModeFlipBit, Seed: 9})
	buf := make([]byte, 128)
	orig := append([]byte(nil), buf...)
	if in.CorruptRead(1, buf) {
		t.Fatal("first read corrupted under every-2")
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("buffer mutated without corruption reported")
	}
	if !in.CorruptRead(1, buf) {
		t.Fatal("second read not corrupted under every-2")
	}
	var diffBits int
	for i := range buf {
		x := buf[i] ^ orig[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("flip changed %d bits, want exactly 1", diffBits)
	}
}

func TestTornWriteLimitsPrefix(t *testing.T) {
	in := mustNew(t, Config{EveryN: 1, Mode: ModeTornWrite, TornBytes: 100})
	if got := in.WriteLimit(1, 4096); got != 100 {
		t.Fatalf("WriteLimit = %d, want 100", got)
	}
	// Fail-mode campaigns never tear writes.
	in2 := mustNew(t, Config{EveryN: 1})
	if got := in2.WriteLimit(1, 4096); got != 4096 {
		t.Fatalf("fail-mode WriteLimit = %d, want full page", got)
	}
	// ModeFlipBit campaigns never abort ops.
	in3 := mustNew(t, Config{EveryN: 1, Mode: ModeFlipBit})
	if err := in3.BeforeOp(OpRead, 1); err != nil {
		t.Fatalf("flip-mode BeforeOp failed the op: %v", err)
	}
}

// TestNewRejectsGarbage: a campaign that cannot run is an error, not a
// silent no-op.
func TestNewRejectsGarbage(t *testing.T) {
	for _, bad := range []Config{
		{Op: "bogus", EveryN: 1}, // unknown op
		{Probability: 2},         // probability outside [0,1]
		{Op: OpRead},             // no trigger
	} {
		if in, err := New(bad); err == nil {
			t.Errorf("New(%+v) = %v, want an error", bad, in)
		}
	}
}
