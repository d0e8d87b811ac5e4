// Package wmem implements the linear memory of a WebAssembly instance as a
// page table over host byte slices.
//
// It is the reproduction of the paper's "rewiring" technique (§6): the paper
// patches V8 with SetModuleMemory() and uses virtual-memory rewiring to make
// host data structures (tables, indexes, result buffers) appear inside the
// module's 32-bit address space without copying. Here, the same observable
// property is obtained by aliasing Go slices: Map installs a host buffer's
// pages directly into the page table, so guest loads read host memory
// in place. Alias does the same between two memories, which is how parallel
// workers share join build tuples. Mapping granularity is the 64 KiB
// WebAssembly page, mirroring the OS page granularity of mmap-based rewiring.
//
// Like an anonymous mmap, the address space is demand-zero: New, Grow and
// Unmap only size the page table, and a module-owned page is taken from a
// pool of zeroed pages by the first access that touches it. Release hands
// the memory's own pages back, cleared, when its query ends. Building a
// memory and rewiring host columns into it therefore costs O(pages mapped)
// pointer writes plus O(pages touched) pool takes — never O(address space),
// and a fresh allocation only when the pool runs dry.
package wmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
)

// PageSize is the WebAssembly page size.
const PageSize = 64 * 1024

const pageShift = 16
const pageMask = PageSize - 1

// pagePool holds zeroed module-owned pages between queries. It is one pool
// for the process, with no size cap: pages are interchangeable across
// engines and queries, and the garbage collector drains what stays unused.
var pagePool sync.Pool

// pagesReleased counts the pages Release has handed back to pagePool.
var pagesReleased atomic.Int64

// ErrMemoryLimit reports that a heap budget installed with SetBudget was
// exceeded — the typed, host-visible form of "this query allocated too
// much", as opposed to an opaque unreachable trap from guest allocator code.
var ErrMemoryLimit = errors.New("wasm trap: memory budget exceeded")

// Trap describes a memory access fault raised by guest code.
type Trap struct {
	Addr uint32
	Size uint32
	Msg  string
	// Cause, when non-nil, is a typed sentinel (ErrMemoryLimit) reachable
	// via errors.Is.
	Cause error
}

func (t *Trap) Error() string {
	return fmt.Sprintf("wasm trap: %s at address %#x (size %d)", t.Msg, t.Addr, t.Size)
}

// Unwrap exposes the typed cause to errors.Is/errors.As.
func (t *Trap) Unwrap() error { return t.Cause }

// Memory is a 32-bit addressable linear memory backed by a page table.
// Pages are either module-owned or installed from outside (by Map from a host
// buffer, by Alias from another memory). A nil entry below Pages() is a
// reserved module-owned page: it reads as zero and is committed — taken from
// the pool of zeroed pages — by the first load or store that touches it. Only
// addresses at or beyond Pages() trap.
type Memory struct {
	pages    [][]byte
	maxPages uint32
	// own has bit p set while pages[p] is a page this memory committed; only
	// those go back to the pool on Release. Map, Alias and Unmap clear the
	// bits of the entries they overwrite, so an installed page is never
	// marked, and an owned page they drop is left to the garbage collector.
	// It grows on commit, never past the page table.
	own []uint64
	// committed counts the module-owned pages committed on first touch;
	// fresh counts those that were newly allocated because the pool was
	// empty.
	committed uint32
	fresh     uint32
	// budget, when non-zero, caps the total size in pages that Grow may
	// reach; exceeding it traps with ErrMemoryLimit (unlike maxPages, whose
	// wasm semantics silently return -1 to the guest).
	budget uint32
	// tr, when non-nil, receives a point event per Grow with the new
	// high-water mark (pages only ever grow, so the current size is the
	// peak).
	tr *obs.Trace
}

// New creates a memory with minPages reserved (demand-zero) module-owned
// pages and the given maximum size in pages (the paper's 4 GiB address budget
// corresponds to maxPages = 65536; experiments shrink it to force chunked
// rewiring). It allocates only the page table.
func New(minPages, maxPages uint32) *Memory {
	if maxPages > 65536 {
		maxPages = 65536
	}
	if minPages > maxPages {
		minPages = maxPages
	}
	return &Memory{pages: make([][]byte, minPages), maxPages: maxPages}
}

// Pages returns the current size in pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.pages)) }

// PageSlice exposes the page table for the run loop's memory fast path,
// which is written into the loop (turbofan/run.go): an access that lies
// within one committed or host-mapped page reads or writes the page slice
// directly, everything else comes back to this type's accessors. The
// returned slice becomes stale after Grow; callers refresh it after any
// operation that may grow the memory. Map, Unmap and first-touch commits
// write into the same backing array, so a cached slice sees them.
func (m *Memory) PageSlice() [][]byte { return m.pages }

// Committed returns how many module-owned pages have been committed by a
// first touch since the memory was created. Host-mapped and aliased pages
// and reserved pages nobody touched are not counted.
func (m *Memory) Committed() uint32 { return m.committed }

// Fresh returns how many of the Committed pages were newly allocated because
// the pool of zeroed pages was empty; the rest were recycled.
func (m *Memory) Fresh() uint32 { return m.fresh }

// Release hands the committed pages still in this memory's page table back
// to the pool, each cleared and each exactly once, and drops the page table,
// so any later access traps as out of bounds instead of reaching a recycled
// page. Pages installed by Map or Alias are left as they are: they belong to
// a host buffer or to another memory. Pages returns 0 afterwards, so read it
// first. Memories that alias each other's pages must all be done running
// before any of them is released. Releasing twice is a no-op.
func (m *Memory) Release() {
	n := 0
	for wi, w := range m.own {
		for ; w != 0; w &= w - 1 {
			pg := (*[PageSize]byte)(m.pages[wi<<6+bits.TrailingZeros64(w)])
			clear(pg[:])
			pagePool.Put(pg)
			n++
		}
	}
	pagesReleased.Add(int64(n))
	m.pages, m.own = nil, nil
}

// disown clears the ownership bits of pages [first, first+n), whose
// entries are about to be overwritten.
func (m *Memory) disown(first, n uint32) {
	for p := first; p < first+n && int(p>>6) < len(m.own); p++ {
		m.own[p>>6] &^= 1 << (p & 63)
	}
}

// MaxPages returns the maximum size in pages.
func (m *Memory) MaxPages() uint32 { return m.maxPages }

// SetBudget installs a per-query heap budget: Grow traps with
// ErrMemoryLimit once the memory would exceed budget pages in total. Zero
// removes the budget. The budget is checked only on growth — pages already
// reserved or host-mapped are unaffected. Committed pages never exceed
// Pages(), so the budget bounds what first touches can allocate as well.
func (m *Memory) SetBudget(pages uint32) { m.budget = pages }

// SetTracer routes growth events into the given query trace (nil detaches).
func (m *Memory) SetTracer(tr *obs.Trace) { m.tr = tr }

// Grow extends the memory by delta reserved (demand-zero) module-owned pages,
// returning the previous size in pages, or -1 if the wasm maximum would be
// exceeded (the semantics of memory.grow). Exceeding a host-installed
// budget (SetBudget) instead traps with a typed ErrMemoryLimit cause.
func (m *Memory) Grow(delta uint32) int32 {
	old := uint32(len(m.pages))
	if err := faultpoint.Hit("wmem-grow"); err != nil {
		panic(&Trap{Msg: err.Error(), Cause: ErrMemoryLimit})
	}
	if uint64(old)+uint64(delta) > uint64(m.maxPages) {
		return -1
	}
	if m.budget > 0 && uint64(old)+uint64(delta) > uint64(m.budget) {
		panic(&Trap{
			Msg:   fmt.Sprintf("memory budget of %d pages exceeded growing %d pages from %d", m.budget, delta, old),
			Cause: ErrMemoryLimit,
		})
	}
	m.pages = append(m.pages, make([][]byte, delta)...)
	if m.tr != nil {
		m.tr.Event(obs.EvGrow, obs.I("delta", int64(delta)), obs.I("pages", int64(len(m.pages))))
	}
	return int32(old)
}

// Map rewires the host buffer data into the address space at addr. Both addr
// and len(data) must be multiples of PageSize; the pages alias data, so guest
// accesses read and write the host buffer in place and no copy occurs.
// The mapped range must lie below the current memory size (use Grow or
// construct with enough pages first); existing pages are replaced.
func (m *Memory) Map(addr uint32, data []byte) error {
	if addr&pageMask != 0 {
		return fmt.Errorf("wmem: map address %#x not page-aligned", addr)
	}
	if len(data)&pageMask != 0 {
		return fmt.Errorf("wmem: map length %d not a page multiple", len(data))
	}
	first := addr >> pageShift
	n := uint32(len(data) >> pageShift)
	if uint64(first)+uint64(n) > uint64(len(m.pages)) {
		return fmt.Errorf("wmem: map of %d pages at %#x exceeds memory size (%d pages)", n, addr, len(m.pages))
	}
	m.disown(first, n)
	for i := uint32(0); i < n; i++ {
		m.pages[first+i] = data[i<<pageShift : (i+1)<<pageShift : (i+1)<<pageShift]
	}
	return nil
}

// Alias rewires n pages of src, starting at srcAddr, into m at addr: worker →
// worker rewiring. Like Map it only writes page-table entries, so both
// memories then read the same bytes. It is meant for ranges neither side
// writes any more: a source page still reserved stays demand-zero on both
// sides independently, and Committed() of neither memory changes. Both
// addresses must be page-aligned and both ranges must lie below the
// respective memory's size (so a budget on m bounds what can be aliased in).
func (m *Memory) Alias(addr uint32, src *Memory, srcAddr, n uint32) error {
	if (addr|srcAddr)&pageMask != 0 {
		return fmt.Errorf("wmem: alias of %#x at %#x not page-aligned", srcAddr, addr)
	}
	first, sfirst := addr>>pageShift, srcAddr>>pageShift
	if uint64(first)+uint64(n) > uint64(len(m.pages)) || uint64(sfirst)+uint64(n) > uint64(len(src.pages)) {
		return fmt.Errorf("wmem: alias of %d pages from %#x to %#x exceeds memory size (%d and %d pages)",
			n, srcAddr, addr, len(src.pages), len(m.pages))
	}
	m.disown(first, n)
	copy(m.pages[first:first+n], src.pages[sfirst:sfirst+n])
	return nil
}

// Unmap returns n pages starting at the page-aligned addr to the reserved
// state: whatever they held is dropped and they read as zero again. A
// committed page it drops is not recycled (another memory may alias it).
func (m *Memory) Unmap(addr uint32, n uint32) error {
	if addr&pageMask != 0 {
		return fmt.Errorf("wmem: unmap address %#x not page-aligned", addr)
	}
	first := addr >> pageShift
	if uint64(first)+uint64(n) > uint64(len(m.pages)) {
		return fmt.Errorf("wmem: unmap out of range")
	}
	m.disown(first, n)
	clear(m.pages[first : first+n])
	return nil
}

func (m *Memory) trap(addr, size uint32) {
	panic(&Trap{Addr: addr, Size: size, Msg: "out-of-bounds memory access"})
}

// checkRange traps unless the n bytes at addr all lie below the memory size.
// Multi-page accesses check up front, so a trap leaves nothing half-written
// and commits nothing.
func (m *Memory) checkRange(addr uint32, n int) {
	if uint64(addr)+uint64(n) > uint64(len(m.pages))<<pageShift {
		m.trap(addr, uint32(n))
	}
}

// page returns the page holding addr for an access of size bytes, committing
// it if it is still reserved; an address beyond the memory size traps.
func (m *Memory) page(addr, size uint32) []byte {
	p := addr >> pageShift
	if p >= uint32(len(m.pages)) {
		m.trap(addr, size)
	}
	pg := m.pages[p]
	if pg == nil {
		pg = m.commit(p)
	}
	return pg
}

// commit installs a zeroed owned page at page index p: a pooled one if any,
// else a new allocation.
func (m *Memory) commit(p uint32) []byte {
	pg, ok := pagePool.Get().(*[PageSize]byte)
	if !ok {
		pg = new([PageSize]byte)
		m.fresh++
	}
	if int(p>>6) >= len(m.own) {
		m.own = append(m.own, make([]uint64, (len(m.pages)+63)>>6-len(m.own))...)
	}
	m.own[p>>6] |= 1 << (p & 63)
	m.committed++
	m.pages[p] = pg[:]
	return pg[:]
}

// span returns the in-page slice for an access of size bytes at addr, or nil
// if the access straddles a page boundary (slow path). An access beyond the
// memory size traps.
func (m *Memory) span(addr, size uint32) []byte {
	off := addr & pageMask
	if off+size > PageSize {
		return nil
	}
	return m.page(addr, size)[off : off+size]
}

// U8 loads a byte.
func (m *Memory) U8(addr uint32) byte {
	return m.page(addr, 1)[addr&pageMask]
}

// PutU8 stores a byte.
func (m *Memory) PutU8(addr uint32, v byte) {
	m.page(addr, 1)[addr&pageMask] = v
}

// U16 loads a little-endian 16-bit value.
func (m *Memory) U16(addr uint32) uint16 {
	if s := m.span(addr, 2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return uint16(m.slowLoad(addr, 2))
}

// PutU16 stores a little-endian 16-bit value.
func (m *Memory) PutU16(addr uint32, v uint16) {
	if s := m.span(addr, 2); s != nil {
		binary.LittleEndian.PutUint16(s, v)
		return
	}
	m.slowStore(addr, 2, uint64(v))
}

// U32 loads a little-endian 32-bit value.
func (m *Memory) U32(addr uint32) uint32 {
	if s := m.span(addr, 4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return uint32(m.slowLoad(addr, 4))
}

// PutU32 stores a little-endian 32-bit value.
func (m *Memory) PutU32(addr uint32, v uint32) {
	if s := m.span(addr, 4); s != nil {
		binary.LittleEndian.PutUint32(s, v)
		return
	}
	m.slowStore(addr, 4, uint64(v))
}

// U64 loads a little-endian 64-bit value.
func (m *Memory) U64(addr uint32) uint64 {
	if s := m.span(addr, 8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return m.slowLoad(addr, 8)
}

// PutU64 stores a little-endian 64-bit value.
func (m *Memory) PutU64(addr uint32, v uint64) {
	if s := m.span(addr, 8); s != nil {
		binary.LittleEndian.PutUint64(s, v)
		return
	}
	m.slowStore(addr, 8, v)
}

// slowLoad assembles a value that straddles a page boundary byte by byte.
func (m *Memory) slowLoad(addr, size uint32) uint64 {
	m.checkRange(addr, int(size))
	var v uint64
	for i := uint32(0); i < size; i++ {
		v |= uint64(m.U8(addr+i)) << (8 * i)
	}
	return v
}

func (m *Memory) slowStore(addr, size uint32, v uint64) {
	m.checkRange(addr, int(size))
	for i := uint32(0); i < size; i++ {
		m.PutU8(addr+i, byte(v>>(8*i)))
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice, crossing page
// boundaries as needed. It is the host-side accessor for result retrieval.
// Reserved pages read as zero and stay uncommitted.
func (m *Memory) ReadBytes(addr, n uint32) []byte {
	m.checkRange(addr, int(n))
	out := make([]byte, n)
	for got := uint32(0); got < n; {
		a := addr + got
		off := a & pageMask
		c := min(n-got, PageSize-off)
		if pg := m.pages[a>>pageShift]; pg != nil {
			copy(out[got:got+c], pg[off:])
		}
		got += c
	}
	return out
}

// WriteBytes copies b into memory at addr, crossing page boundaries and
// committing the pages it touches.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	m.checkRange(addr, len(b))
	for done := 0; done < len(b); {
		a := addr + uint32(done)
		done += copy(m.page(a, 1)[a&pageMask:], b[done:])
	}
}
