package rt

import (
	"testing"

	"wasmdb/internal/engine/wmem"
)

// TestFastPathsOnDemandZeroMemory drives the helpers the way the interpreter
// loops do — with a page-table slice cached before anything is committed —
// over reserved, committed and host-mapped pages, in-page and straddling, and
// checks every result against the wmem accessors on a second memory.
func TestFastPathsOnDemandZeroMemory(t *testing.T) {
	const ps = wmem.PageSize
	host := make([]byte, ps)
	build := func() *wmem.Memory {
		m := wmem.New(4, 8)
		if err := m.Map(2*ps, host); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fast, ref := build(), build()
	pages := fast.PageSlice() // cached once: commits must show through it

	addrs := []uint32{0, 8, ps - 8, ps - 4, ps - 1, ps, 2*ps - 3, 2 * ps, 3*ps - 2, 3*ps + 16, 4*ps - 8}
	for i, a := range addrs {
		v := 0x0102030405060708 * uint64(i+1)
		switch i % 4 {
		case 0:
			StU64(pages, fast, a, v)
			ref.PutU64(a, v)
		case 1:
			StU32(pages, fast, a, uint32(v))
			ref.PutU32(a, uint32(v))
		case 2:
			StU16(pages, fast, a, uint16(v))
			ref.PutU16(a, uint16(v))
		case 3:
			StU8(fast, a, byte(v))
			ref.PutU8(a, byte(v))
		}
	}
	for _, a := range addrs {
		if got, want := LdU64(pages, fast, a&^7), ref.U64(a&^7); got != want {
			t.Errorf("LdU64(%#x) = %#x, want %#x", a&^7, got, want)
		}
		if got, want := LdU32(pages, fast, a), ref.U32(a); got != want {
			t.Errorf("LdU32(%#x) = %#x, want %#x", a, got, want)
		}
		if got, want := LdU16(pages, fast, a), ref.U16(a); got != want {
			t.Errorf("LdU16(%#x) = %#x, want %#x", a, got, want)
		}
		if got, want := LdU8(fast, a), ref.U8(a); got != want {
			t.Errorf("LdU8(%#x) = %#x, want %#x", a, got, want)
		}
	}
	if fast.Committed() != ref.Committed() || fast.Committed() != 3 {
		t.Errorf("committed %d pages through the fast paths, %d through wmem; want 3 (page 2 is mapped)",
			fast.Committed(), ref.Committed())
	}

	// Past the end: in-page, straddling, and through the stale cached slice
	// after nothing grew — all trap, none commits.
	for name, fn := range map[string]func(){
		"LdU8":           func() { LdU8(fast, 4*ps) },
		"LdU64 straddle": func() { LdU64(pages, fast, 4*ps-4) },
		"StU32":          func() { StU32(pages, fast, 4*ps, 1) },
		"StU16 straddle": func() { StU16(pages, fast, 4*ps-1, 1) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*wmem.Trap); !ok {
					t.Errorf("%s past the end: no trap", name)
				}
			}()
			fn()
		}()
	}
	if fast.Committed() != 3 {
		t.Errorf("trapping accesses committed pages: %d", fast.Committed())
	}
}
