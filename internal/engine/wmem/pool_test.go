package wmem

import (
	"bytes"
	"testing"
)

// TestRecycledPagesReadZero dirties every byte of eight committed pages,
// releases them, and commits eight pages in a second memory: each must read
// all zero, and some must be recycled ones (the race detector's sync.Pool
// drops a quarter of its puts, so eight pages leave a wide margin).
func TestRecycledPagesReadZero(t *testing.T) {
	const n = 8
	a := New(n, n)
	a.WriteBytes(0, bytes.Repeat([]byte{0xA5}, n*PageSize))
	a.Release()

	b := New(n, n)
	zero := make([]byte, PageSize)
	for p := uint32(0); p < n; p++ {
		b.U8(p * PageSize) // a load commits the page
		if !bytes.Equal(b.PageSlice()[p], zero) {
			t.Fatalf("page %d is not all zero after commit", p)
		}
	}
	if b.Committed() != n {
		t.Fatalf("committed %d pages, want %d", b.Committed(), n)
	}
	if b.Fresh() == n {
		t.Errorf("all %d pages freshly allocated; none came from the pool", n)
	}
	b.Release()
}

// TestReleaseLeavesInstalledPages releases a memory that holds a host
// buffer (Map), another memory's page (Alias), an owned page that Map
// replaced, and one owned page: only the last goes back to the pool, and the
// host buffer and the other memory's page keep their bytes.
func TestReleaseLeavesInstalledPages(t *testing.T) {
	host := bytes.Repeat([]byte{0x5A}, 2*PageSize)
	want := bytes.Clone(host)
	src := New(1, 1)
	src.PutU64(8, 0x0123456789ABCDEF)

	m := New(4, 4)
	m.PutU8(PageSize, 1) // owned, then replaced by the host buffer
	if err := m.Map(0, host); err != nil {
		t.Fatal(err)
	}
	if err := m.Alias(2*PageSize, src, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.PutU8(3*PageSize+5, 9)
	if m.Committed() != 2 {
		t.Fatalf("committed %d pages, want 2", m.Committed())
	}
	before := pagesReleased.Load()
	m.Release()
	if got := pagesReleased.Load() - before; got != 1 {
		t.Errorf("Release returned %d pages to the pool, want 1 (the one owned page left)", got)
	}
	if !bytes.Equal(host, want) {
		t.Error("Release changed the mapped host buffer")
	}
	if got := src.U64(8); got != 0x0123456789ABCDEF {
		t.Errorf("aliased page reads %#x after the aliasing memory's Release, want its owner's bytes", got)
	}
	src.Release()
}

// TestReleaseReturnsEachPageOnce lets two memories alias each other's one
// owned page and releases both (one of them twice): exactly two pages reach
// the pool.
func TestReleaseReturnsEachPageOnce(t *testing.T) {
	a, b := New(2, 2), New(2, 2)
	a.PutU8(0, 1)
	b.PutU8(0, 2)
	if err := a.Alias(PageSize, b, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Alias(PageSize, a, 0, 1); err != nil {
		t.Fatal(err)
	}
	before := pagesReleased.Load()
	a.Release()
	b.Release()
	a.Release()
	if got := pagesReleased.Load() - before; got != 2 {
		t.Errorf("releasing two aliasing memories returned %d pages, want 2", got)
	}
}

// TestAccessAfterReleaseTraps: a released memory has no page table, so a
// load or store anywhere traps as out of bounds rather than reaching a page
// that may already serve another memory.
func TestAccessAfterReleaseTraps(t *testing.T) {
	m := New(2, 2)
	m.PutU32(16, 7)
	m.Release()
	if m.Pages() != 0 {
		t.Fatalf("Pages() = %d after Release, want 0", m.Pages())
	}
	for name, access := range map[string]func(){
		"load":  func() { m.U32(16) },
		"store": func() { m.PutU8(PageSize, 1) },
		"read":  func() { m.ReadBytes(0, 4) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*Trap); !ok {
					t.Errorf("%s after Release did not trap", name)
				}
			}()
			access()
		}()
	}
}
