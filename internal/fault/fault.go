// Package fault is the deterministic fault-injection framework of the
// storage layer: a config-seeded injector that decides, per page
// operation, whether to fail the operation (transiently or permanently),
// flip a bit in the bytes a read returns, or tear a write so that only a
// prefix of the page reaches the medium. Every decision derives from the
// configured seed and the injector's own operation counter — the same
// configuration replays the same fault sequence run after run, the same
// discipline the dataset generators follow (TestGeneratedDatasetDigest
// pins theirs).
//
// A campaign is a typed Config. The injector is installed on a page store
// with storage.PageFile.SetInjector, on a log with wal.Log.SetInjector,
// and on a whole database (one shard: shard.Set.DB(i)) with
// dsks.DB.SetInjector. Only tests import this package.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// The operation names the storage layer reports to the injector. They
// are plain strings (not a named type) so that internal/storage needs no
// import of this package.
const (
	OpRead  = "read"
	OpWrite = "write"
	// OpSync is the fsync of an append-only log file (internal/storage
	// LogFile); failing it models a medium that accepts writes but cannot
	// make them durable.
	OpSync = "sync"
)

// ErrInjected is the sentinel every injected failure wraps, so
// errors.Is(err, fault.ErrInjected) identifies synthetic faults across
// layers.
var ErrInjected = errors.New("fault: injected error")

// Error is a typed injected fault: the operation it aborted, the page it
// targeted, and whether the fault is transient (a retry of the same
// operation may succeed) or permanent. It wraps ErrInjected, so both
// errors.Is(err, fault.ErrInjected) and errors.As(err, &*fault.Error)
// work across the buffer pool, the index structures and the server.
type Error struct {
	Op        string
	Page      uint32
	Transient bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("fault: injected %s %s error on page %d", kind, e.Op, e.Page)
}

// Unwrap ties the typed error to the ErrInjected sentinel.
func (e *Error) Unwrap() error { return ErrInjected }

// TransientFault reports whether the fault is transient. The buffer
// pool's retry path detects retryable errors through this method (via an
// anonymous interface and errors.As) so internal/storage never imports
// this package.
func (e *Error) TransientFault() bool { return e.Transient }

// IsTransient reports whether err carries a transient injected fault.
// The buffer pool uses the anonymous interface form of this check so it
// does not import this package; IsTransient is the convenience for tests
// and callers that already do.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Transient
}

// Mode selects what an injected fault does to the operation.
type Mode int

const (
	// ModeFail aborts the operation with an *Error.
	ModeFail Mode = iota
	// ModeFlipBit lets the read succeed but flips one deterministic bit
	// in the returned page bytes — silent media corruption, detectable
	// only by page checksums.
	ModeFlipBit
	// ModeTornWrite lets the write report success but applies only the
	// first TornBytes bytes of the page — a torn write, detectable only
	// by page checksums on a later read.
	ModeTornWrite
)

// String names the mode for logs.
func (m Mode) String() string {
	switch m {
	case ModeFail:
		return "fail"
	case ModeFlipBit:
		return "flip"
	case ModeTornWrite:
		return "torn"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes one deterministic fault campaign.
type Config struct {
	// Seed feeds the injector's private PRNG; the same seed replays the
	// same decisions. Zero means seed 1.
	Seed int64
	// Op restricts injection to "read", "write" or "sync"; empty
	// targets every operation.
	Op string
	// Pages restricts injection to the listed pages; nil targets all.
	Pages []uint32
	// Probability fires a fault on each matching operation with this
	// chance (0 disables the probabilistic trigger).
	Probability float64
	// EveryN fires a fault on every Nth matching operation (0 disables
	// the counting trigger). Probability and EveryN compose: either
	// trigger fires the fault.
	EveryN int
	// MaxFaults stops injecting after this many faults fired (0 = no
	// limit) — the knob that turns a fault campaign into a bounded
	// outage the service can recover from.
	MaxFaults int
	// Transient marks injected failures retryable (ModeFail only).
	Transient bool
	// Mode selects failure, bit-flip corruption, or torn writes.
	Mode Mode
	// TornBytes is the prefix a torn write applies (default 512).
	TornBytes int
}

// validate rejects configurations that can never fire or are malformed.
func (c Config) validate() error {
	switch c.Op {
	case "", OpRead, OpWrite, OpSync:
	default:
		return fmt.Errorf("fault: unknown op %q (want %q, %q or %q)", c.Op, OpRead, OpWrite, OpSync)
	}
	if c.Probability < 0 || c.Probability > 1 {
		return fmt.Errorf("fault: probability %v outside [0,1]", c.Probability)
	}
	if c.EveryN < 0 {
		return fmt.Errorf("fault: negative every-N %d", c.EveryN)
	}
	if c.Probability == 0 && c.EveryN == 0 {
		return fmt.Errorf("fault: neither probability nor every-N trigger set")
	}
	if c.MaxFaults < 0 {
		return fmt.Errorf("fault: negative max faults %d", c.MaxFaults)
	}
	if c.TornBytes < 0 {
		return fmt.Errorf("fault: negative torn bytes %d", c.TornBytes)
	}
	if c.Mode != ModeFail && c.Mode != ModeFlipBit && c.Mode != ModeTornWrite {
		return fmt.Errorf("fault: unknown mode %d", int(c.Mode))
	}
	return nil
}

// Injector makes deterministic per-operation fault decisions. It is safe
// for concurrent use; decisions serialize on an internal mutex so the
// (seed, op-counter) stream stays well-defined under concurrency.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	pages map[uint32]bool // nil = all pages
	ops   int64           // matching operations seen
	fired int64           // faults injected
}

// New builds an injector for the given campaign.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.TornBytes == 0 {
		cfg.TornBytes = 512
	}
	in := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Pages != nil {
		in.pages = make(map[uint32]bool, len(cfg.Pages))
		for _, p := range cfg.Pages {
			in.pages[p] = true
		}
	}
	return in, nil
}

// Config returns the injector's campaign configuration.
func (in *Injector) Config() Config { return in.cfg }

// Fired reports the faults injected so far.
func (in *Injector) Fired() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Exhausted reports whether the campaign has hit its MaxFaults budget.
func (in *Injector) Exhausted() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg.MaxFaults > 0 && in.fired >= int64(in.cfg.MaxFaults)
}

// trigger decides whether this matching operation faults; it owns all
// counter movement. mode gates which operation kinds are inspected at
// the call site, not here.
func (in *Injector) trigger(op string, page uint32) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Op != "" && in.cfg.Op != op {
		return false
	}
	if in.pages != nil && !in.pages[page] {
		return false
	}
	in.ops++
	if in.cfg.MaxFaults > 0 && in.fired >= int64(in.cfg.MaxFaults) {
		return false
	}
	fire := in.cfg.EveryN > 0 && in.ops%int64(in.cfg.EveryN) == 0
	if !fire && in.cfg.Probability > 0 && in.rng.Float64() < in.cfg.Probability {
		fire = true
	}
	if fire {
		in.fired++
	}
	return fire
}

// BeforeOp is consulted before a page operation executes; a non-nil
// return aborts it. Only ModeFail campaigns abort operations.
func (in *Injector) BeforeOp(op string, page uint32) error {
	if in.cfg.Mode != ModeFail || !in.trigger(op, page) {
		return nil
	}
	return &Error{Op: op, Page: page, Transient: in.cfg.Transient}
}

// CorruptRead may mutate buf — the page bytes a successful read is about
// to return — and reports whether it did. Only ModeFlipBit campaigns
// corrupt reads.
func (in *Injector) CorruptRead(page uint32, buf []byte) bool {
	if in.cfg.Mode != ModeFlipBit || len(buf) == 0 || !in.trigger(OpRead, page) {
		return false
	}
	in.mu.Lock()
	bit := in.rng.Intn(len(buf) * 8)
	in.mu.Unlock()
	buf[bit/8] ^= 1 << (bit % 8)
	return true
}

// WriteLimit reports how many bytes of a size-byte page write should
// reach the medium: size normally, a shorter prefix when a torn write
// fires. Only ModeTornWrite campaigns tear writes.
func (in *Injector) WriteLimit(page uint32, size int) int {
	if in.cfg.Mode != ModeTornWrite || !in.trigger(OpWrite, page) {
		return size
	}
	limit := in.cfg.TornBytes
	if limit > size {
		limit = size
	}
	return limit
}
