package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wasmdb/internal/catalog"
	"wasmdb/internal/engine"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/types"
	"wasmdb/internal/volcano"
	"wasmdb/internal/wasm"
)

// charWordModule compiles, for one width pair, the CHAR routines as exports of
// a module of their own over one imported page: eq(a, b) is emitCharEq,
// ha(a) and hb(b) the join hash of either side over the narrower width, and
// own(a) the group hash of CHAR(wa) over its own width.
func charWordModule(t *testing.T, wa, wb int) []byte {
	t.Helper()
	b := wasm.NewModuleBuilder()
	b.ImportMemory("env", "memory", 1, 1)
	c := &compiler{b: b}
	export := func(name string, params int, result wasm.ValType, body func(g *gen)) {
		ps := make([]wasm.ValType, params)
		for i := range ps {
			ps[i] = wasm.I32
		}
		f := b.NewFunc(name, wasm.FuncType{Params: ps, Results: []wasm.ValType{result}})
		b.Export(name, wasm.ExternFunc, f.Index)
		g := &gen{c: c, f: f}
		body(g)
		if g.err != nil {
			t.Fatal(g.err)
		}
	}
	hash := func(w int, widths []int) func(g *gen) {
		return func(g *gen) {
			key := keySrc{t: types.TChar(w), pushVal: func() { g.f.LocalGet(g.f.Param(0)) }}
			g.f.LocalGet(g.emitHash([]keySrc{key}, widths, false))
		}
	}
	export("eq", 2, wasm.I32, func(g *gen) {
		g.emitCharEq(g.localChars(g.f.Param(0), 0), wa, g.localChars(g.f.Param(1), 0), wb)
	})
	export("ha", 1, wasm.I64, hash(wa, []int{min(wa, wb)}))
	export("hb", 1, wasm.I64, hash(wb, []int{min(wa, wb)}))
	export("own", 1, wasm.I64, hash(wa, nil))
	mod := b.Module()
	if err := wasm.Validate(mod); err != nil {
		t.Fatal(err)
	}
	return wasm.Encode(mod)
}

// padded is s padded with spaces to w bytes.
func padded(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }

// randChar draws a CHAR(w) value: a logical string of random length over an
// alphabet with spaces (embedded and trailing), NUL and 0xff in it, padded.
func randChar(rng *rand.Rand, w int) string {
	const alphabet = "ab \x00\xff"
	b := make([]byte, rng.Intn(w+1))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return padded(string(b), w)
}

// TestCharWordProperty holds the word-width CHAR routines to Go on random
// width pairs and random values, on both tiers: equality is padded equality
// (TrimRight(a, " ") == TrimRight(b, " ")), values equal under it hash equal
// under a join's narrower-width rule and, at one width, under a group table's
// own-width rule. Each value is placed so that it ends on the last byte of
// memory, where a load reaching past its width traps.
func TestCharWordProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const end = wmem.PageSize
	for trial := 0; trial < 40; trial++ {
		wa, wb := rng.Intn(27), rng.Intn(27)
		bin := charWordModule(t, wa, wb)
		var insts []*engine.Instance
		for _, tier := range []engine.Tier{engine.TierLiftoff, engine.TierTurbofan} {
			mod, err := engine.New(engine.Config{Tier: tier}).Compile(bin)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := mod.Instantiate(engine.Imports{Memory: wmem.New(1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
		}
		call := func(inst *engine.Instance, name string, args ...uint64) uint64 {
			res, err := inst.Call(name, args...)
			if err != nil {
				t.Fatalf("CHAR(%d) vs CHAR(%d): %s: %v", wa, wb, name, err)
			}
			return res[0]
		}
		for i := 0; i < 200; i++ {
			a, b := randChar(rng, wa), randChar(rng, wb)
			switch rng.Intn(3) {
			case 0: // equal logical strings
				if s := strings.TrimRight(a, " "); len(s) <= wb {
					b = padded(s, wb)
				}
			case 1: // equal but for one byte
				if s := []byte(strings.TrimRight(a, " ")); len(s) > 0 && len(s) <= wb {
					s[rng.Intn(len(s))] ^= 1
					b = padded(string(s), wb)
				}
			}
			want := strings.TrimRight(a, " ") == strings.TrimRight(b, " ")
			var got [][4]uint64
			for _, inst := range insts {
				// Either value ends on the last byte of memory, in turn.
				for _, aLast := range []bool{true, false} {
					pa, pb := uint32(end-wa-wb), uint32(end-wb)
					if aLast {
						pa, pb = end-uint32(wa), end-uint32(wa+wb)
					}
					inst.Memory().WriteBytes(pa, []byte(a))
					inst.Memory().WriteBytes(pb, []byte(b))
					got = append(got, [4]uint64{call(inst, "eq", uint64(pa), uint64(pb)),
						call(inst, "ha", uint64(pa)), call(inst, "hb", uint64(pb)), call(inst, "own", uint64(pa))})
				}
			}
			for _, g := range got {
				if g != got[0] {
					t.Fatalf("CHAR(%d) %q vs CHAR(%d) %q: results differ between tiers or placements: %v", wa, a, wb, b, got)
				}
			}
			r := got[0]
			if (r[0] == 1) != want {
				t.Fatalf("CHAR(%d) %q = CHAR(%d) %q is %d, want %v", wa, a, wb, b, r[0], want)
			}
			if want && r[1] != r[2] {
				t.Fatalf("CHAR(%d) %q and CHAR(%d) %q are equal but hash %#x and %#x", wa, a, wb, b, r[1], r[2])
			}
			if wa <= wb && r[3] != r[1] {
				t.Fatalf("CHAR(%d) %q: own-width hash %#x differs from the hash over its whole width %#x", wa, a, r[3], r[1])
			}
		}
	}
}

// TestCharWordHashSlotBits guards the hash's spread where a table looks at
// it: for each byte position of a CHAR key, keys that differ only there must
// land in many different slots of a 1024-slot table. A multiply carries bits
// only upwards, so without the fold before the final avalanche the last bytes
// of an 8-byte chunk would not reach the slot index at all.
func TestCharWordHashSlotBits(t *testing.T) {
	for _, w := range []int{3, 8, 12, 16, 25} {
		bin := charWordModule(t, w, w)
		mod, err := engine.New(engine.Config{Tier: engine.TierLiftoff}).Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := mod.Instantiate(engine.Imports{Memory: wmem.New(1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		base := []byte(padded("", w))
		for at := 0; at < w; at++ {
			slots := map[uint64]bool{}
			for v := byte('!'); v <= '~'; v++ {
				key := append([]byte{}, base...)
				key[at] = v
				inst.Memory().WriteBytes(0, key)
				h, err := inst.Call("own", 0)
				if err != nil {
					t.Fatal(err)
				}
				slots[h[0]&1023] = true
			}
			if len(slots) < 64 {
				t.Errorf("CHAR(%d): 94 keys differing only in byte %d fill %d of 1024 slots", w, at, len(slots))
			}
		}
	}
}

// TestCharWordPageBoundaries runs grouping, equality and a join over CHAR
// values that straddle 64 KiB pages — CHAR(10) rows 6553 and 13107 — and over
// a CHAR(3) column of 65536 rows, whose last value ends on the last byte of
// its three mapped pages, on both tiers and in both code-generation styles,
// against the tuple-at-a-time interpreter.
func TestCharWordPageBoundaries(t *testing.T) {
	cat := catalog.New()
	narrow, err := cat.Create("narrow", []catalog.ColumnDef{{Name: "s", Type: types.TChar(3)}, {Name: "id", Type: types.TInt32}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 65536; i++ {
		narrow.AppendRow(types.NewChar(fmt.Sprint(i%1000), 3), types.NewInt32(int32(i)))
	}
	wide, err := cat.Create("wide", []catalog.ColumnDef{{Name: "s", Type: types.TChar(10)}, {Name: "v", Type: types.TInt32}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14000; i++ {
		wide.AppendRow(types.NewChar(fmt.Sprint(i), 10), types.NewInt32(int32(i%7)))
	}
	queries := []string{
		"SELECT s, COUNT(*), SUM(id) FROM narrow GROUP BY s",
		"SELECT s, COUNT(*), SUM(v) FROM wide GROUP BY s",
		"SELECT COUNT(*), SUM(id) FROM narrow WHERE s = '999' OR s IN ('0', '12', '500 ')",
		"SELECT COUNT(*), SUM(v) FROM wide WHERE s <> '13999' AND s IN ('6553', '13107', '1', '13999', '6553 ')",
		"SELECT COUNT(*), SUM(narrow.id), SUM(wide.v) FROM narrow, wide WHERE narrow.s = wide.s",
		"SELECT wide.v, COUNT(*) FROM narrow, wide WHERE narrow.s = wide.s AND wide.v < 3 GROUP BY wide.v",
	}
	for _, src := range queries {
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sema.Analyze(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		_, ref, err := volcano.Run(q, p)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedRows(&ResultSet{Rows: ref})
		for _, style := range []Style{{}, hyperStyle} {
			cq, q := compileStyledOn(t, cat, src, style)
			for _, tier := range []engine.Tier{engine.TierLiftoff, engine.TierTurbofan} {
				res, _, err := Execute(cq, q, engine.New(engine.Config{Tier: tier}), ExecOptions{})
				if err != nil {
					t.Fatalf("%s (%+v, %v): %v", src, style, tier, err)
				}
				if got := sortedRows(res); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s (%+v, %v):\n%v\nwant\n%v", src, style, tier, got, want)
				}
			}
		}
	}
}
