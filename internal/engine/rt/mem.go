package rt

import (
	"encoding/binary"

	"wasmdb/internal/engine/wmem"
)

// Inline fast paths for linear-memory access. The run loop caches the
// memory's page table ([][]byte) in a local and goes through these helpers.
// One test against the page's length covers both bounds and presence: a
// committed or host-mapped page is 64 KiB long, a reserved (demand-zero) page
// is nil and has length 0. Everything else — a reserved page, a
// page-straddling access, an address past the end — falls back to the wmem
// slow path, which commits the page or raises the trap. A commit writes into
// the page table's backing array, so the cached slice sees it; the slice MUST
// be refreshed only after an instruction that can grow memory — calls (a
// callee or host function may allocate) and memory.grow.
//
// One-byte accesses cannot straddle, so they have no slow path to keep out of
// line: LdU8 and StU8 are Memory.U8 and Memory.PutU8, which inline (commit and
// trap included) into the run loop.

// LdU8 loads a byte.
func LdU8(m *wmem.Memory, ea uint32) byte { return m.U8(ea) }

// StU8 stores a byte.
func StU8(m *wmem.Memory, ea uint32, v byte) { m.PutU8(ea, v) }

// LdU16 loads a 16-bit value.
func LdU16(pages [][]byte, m *wmem.Memory, ea uint32) uint16 {
	if p := int(ea >> 16); p < len(pages) {
		if pg, off := pages[p], int(ea&0xFFFF); off+2 <= len(pg) {
			return binary.LittleEndian.Uint16(pg[off : off+2])
		}
	}
	return m.U16(ea)
}

// LdU32 loads a 32-bit value.
func LdU32(pages [][]byte, m *wmem.Memory, ea uint32) uint32 {
	if p := int(ea >> 16); p < len(pages) {
		if pg, off := pages[p], int(ea&0xFFFF); off+4 <= len(pg) {
			return binary.LittleEndian.Uint32(pg[off : off+4])
		}
	}
	return m.U32(ea)
}

// LdU64 loads a 64-bit value.
func LdU64(pages [][]byte, m *wmem.Memory, ea uint32) uint64 {
	if p := int(ea >> 16); p < len(pages) {
		if pg, off := pages[p], int(ea&0xFFFF); off+8 <= len(pg) {
			return binary.LittleEndian.Uint64(pg[off : off+8])
		}
	}
	return m.U64(ea)
}

// StU16 stores a 16-bit value.
func StU16(pages [][]byte, m *wmem.Memory, ea uint32, v uint16) {
	if p := int(ea >> 16); p < len(pages) {
		if pg, off := pages[p], int(ea&0xFFFF); off+2 <= len(pg) {
			binary.LittleEndian.PutUint16(pg[off:off+2], v)
			return
		}
	}
	m.PutU16(ea, v)
}

// StU32 stores a 32-bit value.
func StU32(pages [][]byte, m *wmem.Memory, ea uint32, v uint32) {
	if p := int(ea >> 16); p < len(pages) {
		if pg, off := pages[p], int(ea&0xFFFF); off+4 <= len(pg) {
			binary.LittleEndian.PutUint32(pg[off:off+4], v)
			return
		}
	}
	m.PutU32(ea, v)
}

// StU64 stores a 64-bit value.
func StU64(pages [][]byte, m *wmem.Memory, ea uint32, v uint64) {
	if p := int(ea >> 16); p < len(pages) {
		if pg, off := pages[p], int(ea&0xFFFF); off+8 <= len(pg) {
			binary.LittleEndian.PutUint64(pg[off:off+8], v)
			return
		}
	}
	m.PutU64(ea, v)
}
