package wasm

import (
	"bytes"
	"runtime"
	"testing"
)

// TestDecodeAliasesCodeSection pins that Decode keeps function bodies as
// slices of its input instead of copying the code section: decoding a
// module whose code section is 44 KB allocates less than that section
// (≈ 950 B for the Module, its types and its function headers), where a copy
// of the section alone was 44 KB. The bodies read the input's bytes.
func TestDecodeAliasesCodeSection(t *testing.T) {
	b := NewModuleBuilder()
	for i := 0; i < 8; i++ {
		f := b.NewFunc("", FuncType{}) // distinct bodies, so bytes.Index finds each
		for k := 0; k < 1000; k++ {
			f.I32Const(int32(i*1000+k) << 8)
			f.Drop()
		}
	}
	bin := b.Bytes()
	m, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	code := 0
	for i := range m.Funcs {
		body := m.Funcs[i].Code
		code += len(body)
		// A write to the input shows in the body iff the body aliases it.
		at := bytes.Index(bin, body)
		bin[at] ^= 0xFF
		if body[0] != bin[at] {
			t.Errorf("function %d's body is not a slice of the input", i)
		}
		bin[at] ^= 0xFF
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(bin); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perDecode := int((after.TotalAlloc - before.TotalAlloc) / runs); perDecode >= code {
		t.Errorf("decoding allocates %d bytes, not less than its %d bytes of function bodies", perDecode, code)
	} else {
		t.Logf("decoding allocates %d bytes for %d bytes of function bodies", perDecode, code)
	}
}
