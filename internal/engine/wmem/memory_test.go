package wmem

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestGrowAndBounds(t *testing.T) {
	m := New(1, 4)
	if m.Pages() != 1 {
		t.Fatalf("pages = %d", m.Pages())
	}
	if got := m.Grow(2); got != 1 {
		t.Fatalf("Grow = %d", got)
	}
	if m.Pages() != 3 {
		t.Fatalf("pages = %d", m.Pages())
	}
	if got := m.Grow(5); got != -1 {
		t.Fatalf("over-limit Grow = %d, want -1", got)
	}
	// New clamps maxPages to the wasm limit.
	big := New(1, 1<<20)
	if big.MaxPages() != 65536 {
		t.Fatalf("maxPages = %d", big.MaxPages())
	}
}

func TestLoadStoreRoundtrip(t *testing.T) {
	m := New(2, 4)
	m.PutU8(5, 0xAB)
	if m.U8(5) != 0xAB {
		t.Error("u8")
	}
	m.PutU16(100, 0xBEEF)
	if m.U16(100) != 0xBEEF {
		t.Error("u16")
	}
	m.PutU32(200, 0xDEADBEEF)
	if m.U32(200) != 0xDEADBEEF {
		t.Error("u32")
	}
	m.PutU64(300, 0x0123456789ABCDEF)
	if m.U64(300) != 0x0123456789ABCDEF {
		t.Error("u64")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New(2, 4)
	// A u64 straddling the page boundary must hit the slow path and stay
	// correct.
	addr := uint32(PageSize - 3)
	m.PutU64(addr, 0x1122334455667788)
	if got := m.U64(addr); got != 0x1122334455667788 {
		t.Fatalf("straddling u64 = %#x", got)
	}
	m.PutU32(PageSize-2, 0xCAFEBABE)
	if got := m.U32(PageSize - 2); got != 0xCAFEBABE {
		t.Fatalf("straddling u32 = %#x", got)
	}
}

func TestMapAliasesHostBuffer(t *testing.T) {
	m := New(3, 8)
	host := make([]byte, PageSize)
	host[0] = 42
	host[PageSize-1] = 43
	if err := m.Map(PageSize, host); err != nil {
		t.Fatal(err)
	}
	if m.U8(PageSize) != 42 || m.U8(2*PageSize-1) != 43 {
		t.Error("mapped data not visible")
	}
	// Guest writes reach the host buffer (zero copy, both directions).
	m.PutU8(PageSize+7, 99)
	if host[7] != 99 {
		t.Error("guest write did not reach host buffer")
	}
	host[8] = 77
	if m.U8(PageSize+8) != 77 {
		t.Error("host write not visible to guest")
	}
}

func TestMapValidation(t *testing.T) {
	m := New(2, 4)
	buf := make([]byte, PageSize)
	if err := m.Map(100, buf); err == nil {
		t.Error("unaligned address accepted")
	}
	if err := m.Map(0, make([]byte, 100)); err == nil {
		t.Error("non-page-multiple length accepted")
	}
	if err := m.Map(4*PageSize, buf); err == nil {
		t.Error("out-of-range mapping accepted")
	}
}

func TestUnmapRestoresZeroPages(t *testing.T) {
	m := New(2, 4)
	host := make([]byte, PageSize)
	for i := range host {
		host[i] = 0xFF
	}
	if err := m.Map(PageSize, host); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if m.U8(PageSize) != 0 {
		t.Error("unmap did not restore a zero page")
	}
	if host[0] != 0xFF {
		t.Error("unmap corrupted the host buffer")
	}
}

func TestRemapChunks(t *testing.T) {
	// §6.1's chunked rewiring: the same window alternately maps different
	// chunks of a large host buffer.
	m := New(2, 2)
	big := make([]byte, 4*PageSize)
	for i := range big {
		big[i] = byte(i / PageSize)
	}
	window := uint32(PageSize)
	for chunk := 0; chunk < 4; chunk++ {
		if err := m.Map(window, big[chunk*PageSize:(chunk+1)*PageSize]); err != nil {
			t.Fatal(err)
		}
		if got := m.U8(window); got != byte(chunk) {
			t.Fatalf("chunk %d: got %d", chunk, got)
		}
	}
}

func TestReadWriteBytesRoundtrip(t *testing.T) {
	m := New(2, 4)
	f := func(off uint16, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		addr := uint32(off)
		m.WriteBytes(addr, data)
		got := m.ReadBytes(addr, uint32(len(data)))
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mustTrap runs fn and fails unless it raises a *Trap.
func mustTrap(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if _, ok := recover().(*Trap); !ok {
			t.Errorf("%s: no trap", what)
		}
	}()
	fn()
}

// TestReservedPagesReadZero: pages that New, Grow and Unmap reserve read as
// zero through every width, including accesses that straddle from a committed
// page into a reserved one and the other way round.
func TestReservedPagesReadZero(t *testing.T) {
	m := New(2, 16)
	m.Grow(2)
	host := make([]byte, PageSize)
	host[0] = 0xFF
	if err := m.Map(3*PageSize, host); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(3*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < 4; p++ { // 0,1 fresh; 2 grown; 3 unmapped
		base := p * PageSize
		if m.U8(base+1) != 0 || m.U16(base+2) != 0 || m.U32(base+4) != 0 || m.U64(base+8) != 0 {
			t.Errorf("page %d does not read as zero", p)
		}
	}

	// One side of the straddle is committed and holds a marker byte, the
	// other is still reserved; every width gets a fresh memory so the load
	// under test is the first touch of the reserved side.
	loads := map[uint32]func(m *Memory, addr uint32) uint64{
		2: func(m *Memory, addr uint32) uint64 { return uint64(m.U16(addr)) },
		4: func(m *Memory, addr uint32) uint64 { return uint64(m.U32(addr)) },
		8: func(m *Memory, addr uint32) uint64 { return m.U64(addr) },
	}
	for size, load := range loads {
		for _, marker := range []uint32{PageSize - 1, PageSize} { // page 0's last byte, page 1's first
			m := New(2, 2)
			m.PutU8(marker, 0xAB)
			addr := PageSize - size/2
			want := uint64(0xAB) << (8 * (marker - addr))
			if got := load(m, addr); got != want {
				t.Errorf("u%d at %#x with marker at %#x = %#x, want %#x", 8*size, addr, marker, got, want)
			}
			if m.Committed() != 2 {
				t.Errorf("u%d straddle committed %d pages, want both", 8*size, m.Committed())
			}
		}
	}

	// A straddling store commits both sides.
	m = New(2, 2)
	m.PutU64(PageSize-3, 0x1122334455667788)
	if m.Committed() != 2 || m.U64(PageSize-3) != 0x1122334455667788 {
		t.Errorf("straddling store: committed %d, value %#x", m.Committed(), m.U64(PageSize-3))
	}
}

// TestSizingAllocatesOnlyThePageTable: New, Grow and Unmap cost O(page
// table), not O(address space) — asserted on bytes allocated, not on time.
func TestSizingAllocatesOnlyThePageTable(t *testing.T) {
	const entry = 24 // one []byte header per page
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var m *Memory
	if got := allocated(func() { m = New(4096, 65536) }); got > 2*4096*entry {
		t.Errorf("New(4096, 65536) allocated %d bytes, want O(page table) ≈ %d", got, 4096*entry)
	}
	if got := allocated(func() { m.Grow(60000) }); got > 2*(4096+60000)*entry {
		t.Errorf("Grow(60000) allocated %d bytes, want O(page table) ≈ %d", got, (4096+60000)*entry)
	}
	if m.Pages() != 64096 || m.Committed() != 0 {
		t.Fatalf("pages = %d, committed = %d", m.Pages(), m.Committed())
	}
	if n := testing.AllocsPerRun(10, func() { New(4096, 65536) }); n > 2 {
		t.Errorf("New makes %v allocations, want the Memory and its page table", n)
	}
	if n := testing.AllocsPerRun(10, func() { _ = m.Unmap(0, 64096) }); n != 0 {
		t.Errorf("Unmap makes %v allocations, want 0", n)
	}
	// Touching the last page of a 4 GiB reservation commits exactly it.
	m.PutU32(64095*PageSize+PageSize-4, 7)
	if m.Committed() != 1 || m.U32(64096*PageSize-4) != 7 {
		t.Errorf("last-page touch: committed %d", m.Committed())
	}
}

// TestReadBytesCommitsNothing: the host-side bulk read sees zeros on reserved
// pages and leaves them reserved, also when the range mixes committed,
// mapped and reserved pages.
func TestReadBytesCommitsNothing(t *testing.T) {
	m := New(4, 4)
	for _, b := range m.ReadBytes(PageSize-100, 2*PageSize) {
		if b != 0 {
			t.Fatal("reserved pages read non-zero")
		}
	}
	if m.Committed() != 0 {
		t.Fatalf("ReadBytes committed %d pages", m.Committed())
	}
	m.PutU8(PageSize-1, 1) // page 0 committed
	host := make([]byte, PageSize)
	host[0] = 3
	if err := m.Map(2*PageSize, host); err != nil { // page 2 mapped, page 1 reserved
		t.Fatal(err)
	}
	got := m.ReadBytes(PageSize-1, PageSize+2)
	if got[0] != 1 || got[1] != 0 || got[PageSize] != 0 || got[PageSize+1] != 3 {
		t.Errorf("mixed read = %d %d … %d %d", got[0], got[1], got[PageSize], got[PageSize+1])
	}
	if m.Committed() != 1 {
		t.Errorf("mixed ReadBytes committed pages: %d, want 1", m.Committed())
	}
	// WriteBytes commits exactly the pages it touches.
	m.WriteBytes(PageSize-2, []byte{9, 9, 9, 9})
	if m.Committed() != 2 || m.U32(PageSize-2) != 0x09090909 {
		t.Errorf("WriteBytes: committed %d, value %#x", m.Committed(), m.U32(PageSize-2))
	}
}

// TestOutOfBoundsTraps: accesses at or past Pages() trap, and neither a
// trapping access nor a straddle past the end commits the last (reserved)
// page on its way out.
func TestOutOfBoundsTraps(t *testing.T) {
	m := New(2, 4)
	end := uint32(2 * PageSize)
	mustTrap(t, "u8 at end", func() { m.U8(end) })
	mustTrap(t, "u16 straddling end", func() { m.U16(end - 1) })
	mustTrap(t, "u32 straddling end", func() { m.U32(end - 3) })
	mustTrap(t, "u64 straddling end", func() { m.U64(end - 7) })
	mustTrap(t, "put u8 at end", func() { m.PutU8(end, 1) })
	mustTrap(t, "put u16 straddling end", func() { m.PutU16(end-1, 1) })
	mustTrap(t, "put u32 straddling end", func() { m.PutU32(end-1, 1) })
	mustTrap(t, "put u64 straddling end", func() { m.PutU64(end-4, 1) })
	mustTrap(t, "read bytes past end", func() { m.ReadBytes(end-4, 8) })
	mustTrap(t, "write bytes past end", func() { m.WriteBytes(end-4, make([]byte, 8)) })
	mustTrap(t, "wrapping address", func() { m.U64(0xFFFFFFFC) })
	if m.Committed() != 0 {
		t.Errorf("trapping accesses committed %d pages", m.Committed())
	}
	// Growing makes the same addresses valid, zero pages.
	m.Grow(1)
	if m.U64(end-7) != 0 {
		t.Error("grown page not zero")
	}
}

// TestMapAndUnmapDropCommittedContents: Map over a page the guest already
// committed replaces it, and Unmap returns the range to zero — the old
// contents never come back.
func TestMapAndUnmapDropCommittedContents(t *testing.T) {
	m := New(2, 2)
	m.PutU32(PageSize+8, 0xDEADBEEF)
	host := make([]byte, PageSize)
	host[8] = 1
	if err := m.Map(PageSize, host); err != nil {
		t.Fatal(err)
	}
	if got := m.U32(PageSize + 8); got != 1 {
		t.Errorf("after Map: %#x, want the host buffer's 1", got)
	}
	if err := m.Unmap(PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.U32(PageSize + 8); got != 0 {
		t.Errorf("after Unmap: %#x, want 0", got)
	}
	m.PutU8(PageSize, 5)
	if host[0] != 0 {
		t.Error("store after Unmap reached the host buffer")
	}
}

// TestAliasSharesPages pins worker → worker rewiring over the three kinds of
// source page: a committed page is shared in place, a reserved page stays
// demand-zero on both sides independently, and a host-mapped page aliases the
// host buffer through both memories. Nothing is copied or committed by the
// call, and neither memory changes size.
func TestAliasSharesPages(t *testing.T) {
	src, dst := New(4, 8), New(6, 8)
	host := make([]byte, PageSize)
	host[7] = 0x5A
	if err := src.Map(2*PageSize, host); err != nil {
		t.Fatal(err)
	}
	src.PutU32(PageSize+16, 0xFEEDF00D) // page 1 committed, page 3 stays reserved
	if err := dst.Alias(3*PageSize, src, PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if src.Committed() != 1 || dst.Committed() != 0 || src.Pages() != 4 || dst.Pages() != 6 {
		t.Fatalf("after Alias: committed %d/%d, pages %d/%d; want 1/0 and 4/6",
			src.Committed(), dst.Committed(), src.Pages(), dst.Pages())
	}
	if got := dst.U32(3*PageSize + 16); got != 0xFEEDF00D {
		t.Errorf("committed page through the alias = %#x", got)
	}
	if got := dst.U8(4*PageSize + 7); got != 0x5A {
		t.Errorf("host-mapped page through the alias = %#x", got)
	}
	host[8] = 0x66
	if dst.U8(4*PageSize+8) != 0x66 || src.U8(2*PageSize+8) != 0x66 {
		t.Error("host write not visible through both memories")
	}
	// The committed page is one page, not a copy.
	src.PutU8(PageSize+20, 9)
	if dst.U8(3*PageSize+20) != 9 {
		t.Error("aliased committed page was copied")
	}
	if dst.Committed() != 0 {
		t.Errorf("reading shared pages committed %d pages in dst", dst.Committed())
	}
	// The reserved page reads zero and commits privately on first touch.
	if dst.U8(5*PageSize+1) != 0 || dst.Committed() != 1 || src.Committed() != 1 {
		t.Errorf("reserved page through the alias: dst committed %d, src %d; want 1 and 1",
			dst.Committed(), src.Committed())
	}
}

func TestAliasValidation(t *testing.T) {
	src, dst := New(2, 8), New(2, 8)
	for _, c := range []struct {
		name          string
		addr, from, n uint32
	}{
		{"unaligned destination", 100, 0, 1},
		{"unaligned source", 0, 100, 1},
		{"beyond destination", PageSize, 0, 2},
		{"beyond source", 0, PageSize, 2},
	} {
		if err := dst.Alias(c.addr, src, c.from, c.n); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// The destination must already exist, so a budget on it bounds what can
	// be aliased in: growing room for the region is what trips it.
	dst.SetBudget(3)
	defer func() {
		tr, ok := recover().(*Trap)
		if !ok || tr.Cause != ErrMemoryLimit {
			t.Fatalf("growing past the budget for an alias region: recovered %v", tr)
		}
		if err := dst.Alias(PageSize, src, 0, 2); err == nil {
			t.Error("alias into pages the budget refused was accepted")
		}
	}()
	dst.Grow(2)
}

// TestAliasConcurrentReaders is the shape the join barrier relies on: once
// aliased, a range is read by both memories' owners at the same time and
// written by neither. Run under -race.
func TestAliasConcurrentReaders(t *testing.T) {
	src, dst := New(4, 4), New(4, 4)
	for a := uint32(PageSize); a < 3*PageSize; a += 8 {
		src.PutU64(a, uint64(a))
	}
	if err := dst.Alias(2*PageSize, src, PageSize, 2); err != nil {
		t.Fatal(err)
	}
	sum := func(m *Memory, base uint32) (s uint64) {
		for a := uint32(0); a < 2*PageSize; a += 8 {
			s += m.U64(base + a)
		}
		return s
	}
	got := make(chan uint64, 2)
	go func() { got <- sum(src, PageSize) }()
	go func() { got <- sum(dst, 2*PageSize) }()
	if a, b := <-got, <-got; a != b || a == 0 {
		t.Errorf("readers saw %d and %d", a, b)
	}
}
