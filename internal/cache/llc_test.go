package cache

import (
	"testing"
	"testing/quick"
)

// fakeBackend records requests and completes fills on demand.
type fakeBackend struct {
	reads       []uint64
	writes      []uint64
	fills       map[uint64]func()
	rejectRead  bool
	rejectWrite bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{fills: map[uint64]func(){}}
}

func (b *fakeBackend) ReadLine(addr uint64, coreID int, onDone func()) bool {
	if b.rejectRead {
		return false
	}
	b.reads = append(b.reads, addr)
	b.fills[addr] = onDone
	return true
}

func (b *fakeBackend) WriteLine(addr uint64, coreID int) bool {
	if b.rejectWrite {
		return false
	}
	b.writes = append(b.writes, addr)
	return true
}

func (b *fakeBackend) complete(addr uint64) {
	if fn, ok := b.fills[addr]; ok {
		delete(b.fills, addr)
		fn()
	}
}

func testConfig() Config {
	return Config{
		SizeBytes:  64 * 1024, // small for tests
		Ways:       16,
		LineBytes:  64,
		HitLatency: 26,
		MSHRs:      8,
	}
}

func mustLLC(t *testing.T, cfg Config, b Backend) *LLC {
	t.Helper()
	c, err := New(cfg, b)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := testConfig()
	bad.SizeBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero size")
	}
	bad = testConfig()
	bad.Ways = 7 // 1024 lines not divisible by 7
	if err := bad.Validate(); err == nil {
		t.Error("accepted indivisible ways")
	}
	bad = testConfig()
	bad.MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero MSHRs")
	}
	if _, err := New(testConfig(), nil); err == nil {
		t.Error("accepted nil backend")
	}
	// Table 1 LLC: 4MB, 16-way, 64B.
	big := Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64, HitLatency: 26, MSHRs: 32}
	if err := big.Validate(); err != nil {
		t.Errorf("Table 1 LLC config rejected: %v", err)
	}
}

func TestMissFillHit(t *testing.T) {
	b := newFakeBackend()
	c := mustLLC(t, testConfig(), b)
	fired := false
	res := c.Access(0, 0x1000, false, 0, func() { fired = true })
	if res != Miss {
		t.Fatalf("first access = %v, want miss", res)
	}
	if len(b.reads) != 1 || b.reads[0] != 0x1000 {
		t.Fatalf("backend reads = %v", b.reads)
	}
	b.complete(0x1000)
	if !fired {
		t.Error("fill did not wake the waiter")
	}
	// Second access: hit, callback after HitLatency.
	hitFired := false
	res = c.Access(100, 0x1000, false, 0, func() { hitFired = true })
	if res != Hit {
		t.Fatalf("second access = %v, want hit", res)
	}
	c.Tick(100 + int64(c.Config().HitLatency) - 1)
	if hitFired {
		t.Error("hit completed before hit latency")
	}
	c.Tick(100 + int64(c.Config().HitLatency))
	if !hitFired {
		t.Error("hit not completed at hit latency")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentOffsetHits(t *testing.T) {
	b := newFakeBackend()
	c := mustLLC(t, testConfig(), b)
	c.Access(0, 0x1000, false, 0, func() {})
	b.complete(0x1000)
	if res := c.Access(1, 0x1038, false, 0, func() {}); res != Hit {
		t.Errorf("access within same line = %v, want hit", res)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	b := newFakeBackend()
	c := mustLLC(t, testConfig(), b)
	n := 0
	c.Access(0, 0x2000, false, 0, func() { n++ })
	res := c.Access(1, 0x2000, false, 1, func() { n++ })
	if res != Coalesced {
		t.Fatalf("second miss = %v, want coalesced", res)
	}
	if len(b.reads) != 1 {
		t.Fatalf("backend saw %d reads, want 1", len(b.reads))
	}
	b.complete(0x2000)
	if n != 2 {
		t.Errorf("waiters woken = %d, want 2", n)
	}
	if c.Stats().Coalesced != 1 {
		t.Errorf("coalesced = %d", c.Stats().Coalesced)
	}
}

func TestMSHRExhaustionRetries(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	b := newFakeBackend()
	c := mustLLC(t, cfg, b)
	c.Access(0, 0x1000, false, 0, func() {})
	c.Access(0, 0x2000, false, 0, func() {})
	if res := c.Access(0, 0x3000, false, 0, func() {}); res != Retry {
		t.Errorf("access with full MSHRs = %v, want retry", res)
	}
	if c.MSHRsInUse() != 2 {
		t.Errorf("MSHRsInUse = %d", c.MSHRsInUse())
	}
	b.complete(0x1000)
	if res := c.Access(1, 0x3000, false, 0, func() {}); res != Miss {
		t.Errorf("after fill = %v, want miss", res)
	}
}

func TestBackendRejectionRetries(t *testing.T) {
	b := newFakeBackend()
	b.rejectRead = true
	c := mustLLC(t, testConfig(), b)
	if res := c.Access(0, 0x1000, false, 0, func() {}); res != Retry {
		t.Errorf("rejected read = %v, want retry", res)
	}
	if c.MSHRsInUse() != 0 {
		t.Error("MSHR leaked on rejected read")
	}
}

func TestWriteAllocateAndDirtyEviction(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 2 * 64 * 16 // 2 sets x 16 ways
	b := newFakeBackend()
	c := mustLLC(t, cfg, b)
	// Write-allocate a line: no backend traffic yet.
	if res := c.Access(0, 0x0, true, 0, nil); res != Miss {
		t.Errorf("write fill = %v", res)
	}
	if len(b.writes) != 0 {
		t.Error("premature writeback")
	}
	if c.DirtyLines() != 1 {
		t.Errorf("dirty lines = %d", c.DirtyLines())
	}
	// Re-write: hit.
	if res := c.Access(1, 0x0, true, 0, nil); res != Hit {
		t.Errorf("write hit = %v", res)
	}
	// Fill the whole cache with reads until the dirty line is evicted.
	addr := uint64(0x10000)
	for i := 0; c.DirtyLines() > 0 && i < 4096; i++ {
		c.Access(2, addr, false, 0, func() {})
		b.complete(c.lineAddr(addr))
		addr += 64
	}
	if len(b.writes) == 0 {
		t.Fatal("dirty eviction never wrote back")
	}
	if b.writes[0] != 0 {
		t.Errorf("writeback addr = %#x, want 0", b.writes[0])
	}
	if c.Stats().Writebacks == 0 || c.Stats().Evictions == 0 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestWritebackBacklogRetried(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 64 * 16 // one set
	b := newFakeBackend()
	c := mustLLC(t, cfg, b)
	b.rejectWrite = true
	// Dirty the whole set, then overflow it to force an eviction.
	for i := 0; i < 17; i++ {
		c.Access(0, uint64(i)*64*1024, true, 0, nil) // distinct tags, same set? ensure same set below
	}
	// At least one eviction happened; its writeback is backlogged.
	if c.Stats().Evictions == 0 {
		t.Skip("eviction pattern did not collide in one set")
	}
	if len(b.writes) != 0 {
		t.Fatal("write accepted while rejecting")
	}
	if c.WritebackBacklogPeak() == 0 {
		t.Fatal("no backlog recorded")
	}
	b.rejectWrite = false
	c.Tick(10)
	if len(b.writes) == 0 {
		t.Error("backlogged writeback not retried")
	}
	if c.Pending() {
		t.Error("cache still pending after backlog drain")
	}
}

func TestWriteToPendingMissMarksDirtyOnFill(t *testing.T) {
	b := newFakeBackend()
	c := mustLLC(t, testConfig(), b)
	c.Access(0, 0x4000, false, 0, func() {})
	if res := c.Access(1, 0x4000, true, 0, nil); res != Coalesced {
		t.Errorf("write to pending line = %v, want coalesced", res)
	}
	b.complete(0x4000)
	if c.DirtyLines() != 1 {
		t.Error("line not dirty after coalesced write + fill")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 64 * 16 // one set of 16 ways
	cfg.Ways = 16
	b := newFakeBackend()
	c := mustLLC(t, cfg, b)
	line := func(i int) uint64 { return uint64(i) * 64 * 16 } // same set
	// Fill 16 ways.
	for i := 0; i < 16; i++ {
		c.Access(int64(i), line(i), false, 0, func() {})
		b.complete(line(i))
	}
	// Touch line 0 so line 1 is LRU.
	c.Access(100, line(0), false, 0, func() {})
	// Install a 17th line.
	c.Access(101, line(16), false, 0, func() {})
	b.complete(line(16))
	if res := c.Access(102, line(0), false, 0, func() {}); res != Hit {
		t.Error("MRU line evicted")
	}
	if res := c.Access(103, line(1), false, 0, func() {}); res == Hit {
		t.Error("LRU line survived")
	}
}

func TestContentsCount(t *testing.T) {
	b := newFakeBackend()
	c := mustLLC(t, testConfig(), b)
	for i := 0; i < 10; i++ {
		addr := uint64(i) * 64
		c.Access(0, addr, false, 0, func() {})
		b.complete(addr)
	}
	if c.Contents() != 10 {
		t.Errorf("Contents = %d, want 10", c.Contents())
	}
	c.ResetStats()
	if c.Stats().Misses != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestAccessResultString(t *testing.T) {
	if Hit.String() != "hit" || Miss.String() != "miss" ||
		Coalesced.String() != "coalesced" || Retry.String() != "retry" {
		t.Error("AccessResult.String misbehaves")
	}
}

// Property: the number of valid lines never exceeds capacity, for any
// access pattern.
func TestCapacityNeverExceeded(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 4 * 1024 // 64 lines
	b := newFakeBackend()
	c := mustLLC(t, cfg, b)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			line := c.lineAddr(uint64(a))
			if c.Access(0, uint64(a), a%3 == 0, 0, func() {}) == Miss && a%3 != 0 {
				b.complete(line)
			}
		}
		return c.Contents() <= cfg.SizeBytes/cfg.LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A cache built after another one's Release starts empty, whatever the
// released cache held, and has the line count of its own config.
func TestReleasedLinesComeBackCleared(t *testing.T) {
	cfg := testConfig()
	b := newFakeBackend()
	c := mustLLC(t, cfg, b)
	for i := 0; i < 64; i++ {
		c.Access(0, uint64(i)*64, true, 0, nil)
	}
	if c.DirtyLines() != 64 {
		t.Fatalf("dirty lines = %d, want 64", c.DirtyLines())
	}
	c.Release()
	c.Release() // a second Release is a no-op, not a double Put
	if c.Stats().WriteFills != 64 {
		t.Error("Release lost the counters")
	}

	for _, size := range []int{cfg.SizeBytes, cfg.SizeBytes / 2, cfg.SizeBytes} {
		next := cfg
		next.SizeBytes = size
		d := mustLLC(t, next, newFakeBackend())
		if n := len(d.tags); n != size/cfg.LineBytes {
			t.Fatalf("size %d: %d lines, want %d", size, n, size/cfg.LineBytes)
		}
		if d.Contents() != 0 || d.DirtyLines() != 0 {
			t.Fatalf("size %d: reused cache holds %d lines, %d dirty", size, d.Contents(), d.DirtyLines())
		}
		if res := d.Access(0, 0, false, 0, func() {}); res != Miss {
			t.Fatalf("size %d: first access to a fresh cache = %v, want miss", size, res)
		}
		d.Release()
	}
}

// Use after Release panics rather than touching lines another cache
// may now own.
func TestAccessAfterReleasePanics(t *testing.T) {
	c := mustLLC(t, testConfig(), newFakeBackend())
	c.Release()
	defer func() {
		if recover() == nil {
			t.Error("Access after Release did not panic")
		}
	}()
	c.Access(0, 0, false, 0, func() {})
}
