package wmem

import "testing"

var sink *Memory

// BenchmarkNew builds the address space of a typical query (a few thousand
// pages of column windows, result buffer and heap): the page table only.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = New(4096, 65536)
	}
}

// BenchmarkMap46MiB is the paper's §6.1 rewiring figure: mapping 46 MiB of
// host columns is pointer writes, one per page.
func BenchmarkMap46MiB(b *testing.B) {
	const size = 46 << 20
	host := make([]byte, size)
	m := New(1+size/PageSize, 65536)
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Map(PageSize, host); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitPage is the price of a first touch: allocating one zeroed
// 64 KiB page (Unmap returns it to the reserved state for the next round).
func BenchmarkCommitPage(b *testing.B) {
	m := New(1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PutU8(0, 1)
		_ = m.Unmap(0, 1)
	}
}
