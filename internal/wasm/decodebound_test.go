package wasm

import (
	"bytes"
	"runtime"
	"testing"
)

// TestDecodeHostileCountAllocatesLittle pins that a section's declared count
// does not size what Decode reserves: an export section and a global section
// of a few bytes, each declaring 0xFFFFFFFF entries, are rejected, and a
// call allocates at most 1 KiB (≈ 300 B today) — not a slice or map sized
// for four billion entries.
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	const maxCount = "\xff\xff\xff\xff\x0f" // 0xFFFFFFFF as a LEB128
	section := func(id byte, body string) []byte {
		return append(append(append([]byte(nil), magic...), id, byte(len(body))), body...)
	}
	for _, c := range []struct {
		name string
		bin  []byte
	}{
		// One export "a" of function 0, then the section ends.
		{"export", section(secExport, maxCount+"\x01a\x00\x00")},
		// One mutable i32 global initialised to 0, then the section ends.
		{"global", section(secGlobal, maxCount+"\x7f\x01\x41\x00\x0b")},
	} {
		if _, err := Decode(c.bin); err == nil {
			t.Errorf("%s: a section declaring 0xFFFFFFFF entries decoded", c.name)
			continue
		}
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() { _, _ = Decode(c.bin) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = Decode(c.bin)
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocs, %d B per call", c.name, allocs, perCall)
		if allocs > 8 || perCall > 1024 {
			t.Errorf("%s: Decode of a %d-byte module allocates %.0f times, %d bytes per call; want ≤ 8 and ≤ 1024",
				c.name, len(c.bin), allocs, perCall)
		}
	}
}

// TestDecodeNamedPrintsAsBuilt pins the print-only name read: a module
// decoded with its names prints exactly as the builder's Module does, while
// Decode leaves the names empty.
func TestDecodeNamedPrintsAsBuilt(t *testing.T) {
	b := buildTestModule()
	bin := b.Bytes()
	m, err := DecodeNamed(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Print(m), Print(b.Module()); got != want {
		t.Errorf("printed decoded module differs from the built one:\n%s\nwant:\n%s", got, want)
	}
	plain, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range plain.Funcs {
		if fn.Name != "" {
			t.Errorf("Decode read the name %q", fn.Name)
		}
	}
}

// TestBuilderResetRebuilds pins that a Reset builder builds the same module
// again, and that Module may be called twice.
func TestBuilderResetRebuilds(t *testing.T) {
	b := buildTestModule()
	want := Encode(b.Module())
	if again := Encode(b.Module()); !bytes.Equal(again, want) {
		t.Fatal("a second Module call changed the module")
	}
	b.Reset()
	small := b.NewFunc("one", FuncType{Results: []ValType{I32}})
	small.I32Const(1)
	if m := b.Module(); len(m.Funcs) != 1 || len(m.Funcs[0].Locals) != 0 || len(m.Imports) != 0 || len(m.Exports) != 0 {
		t.Fatalf("a Reset builder kept parts of its last module: %d funcs, %d locals, %d imports, %d exports",
			len(m.Funcs), len(m.Funcs[0].Locals), len(m.Imports), len(m.Exports))
	}
	if err := Validate(b.Module()); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if got := Encode(buildTestModuleInto(b).Module()); !bytes.Equal(got, want) {
		t.Error("the module rebuilt into a Reset builder differs from the fresh build")
	}
}
