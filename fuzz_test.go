package wasmdb_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wasmdb"
	"wasmdb/internal/engine"
	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// TestRandomQueryDifferential generates random queries from a small grammar
// and demands identical results across all six backend configurations —
// property-based testing with the backends as each other's oracles.
func TestRandomQueryDifferential(t *testing.T) {
	db := wasmdb.Open()
	mustExec := func(s string) {
		if err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`CREATE TABLE t (id INT, a INT, b INT, f DOUBLE, dec DECIMAL(10,2), d DATE, s CHAR(8), g INT)`)
	rng := rand.New(rand.NewSource(20260705))
	words := []string{"alpha", "beta", "gamma", "PROMO", "PROMO X", "delta", ""}
	var rows []string
	for i := 0; i < 2000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, %d.%04d, %d.%02d, DATE '19%02d-%02d-%02d', '%s', %d)",
			i, rng.Intn(1000)-500, rng.Intn(100), rng.Intn(3), rng.Intn(10000),
			rng.Intn(1000), rng.Intn(100),
			90+rng.Intn(10), 1+rng.Intn(12), 1+rng.Intn(28),
			words[rng.Intn(len(words))], rng.Intn(6)))
	}
	mustExec("INSERT INTO t VALUES " + strings.Join(rows, ", "))

	genPred := func(depth int) string {
		var gen func(d int) string
		gen = func(d int) string {
			if d > 0 && rng.Intn(2) == 0 {
				op := "AND"
				if rng.Intn(2) == 0 {
					op = "OR"
				}
				lhs, rhs := gen(d-1), gen(d-1)
				p := fmt.Sprintf("(%s %s %s)", lhs, op, rhs)
				if rng.Intn(4) == 0 {
					p = "NOT " + p
				}
				return p
			}
			switch rng.Intn(8) {
			case 0:
				return fmt.Sprintf("a %s %d", cmpOps[rng.Intn(len(cmpOps))], rng.Intn(1000)-500)
			case 1:
				return fmt.Sprintf("f %s %d.%02d", cmpOps[rng.Intn(len(cmpOps))], rng.Intn(3), rng.Intn(100))
			case 2:
				return fmt.Sprintf("dec %s %d.%02d", cmpOps[rng.Intn(len(cmpOps))], rng.Intn(1000), rng.Intn(100))
			case 3:
				return fmt.Sprintf("d %s DATE '19%02d-06-15'", cmpOps[rng.Intn(len(cmpOps))], 90+rng.Intn(10))
			case 4:
				return fmt.Sprintf("b BETWEEN %d AND %d", rng.Intn(50), 50+rng.Intn(50))
			case 5:
				return fmt.Sprintf("g IN (%d, %d)", rng.Intn(6), rng.Intn(6))
			case 6:
				pats := []string{"PROMO%", "%a", "%mm%", "alpha", "%et%", "a%a", "_eta"}
				return fmt.Sprintf("s LIKE '%s'", pats[rng.Intn(len(pats))])
			default:
				return fmt.Sprintf("s = '%s'", words[rng.Intn(len(words)-1)])
			}
		}
		return gen(depth)
	}

	for trial := 0; trial < 40; trial++ {
		var sb strings.Builder
		grouped := rng.Intn(2) == 0
		ordered := false
		if grouped {
			keys := []string{"g"}
			if rng.Intn(3) == 0 {
				keys = []string{"g", "s"}
			}
			aggs := []string{"COUNT(*)", "SUM(a)", "MIN(b)", "MAX(f)", "AVG(dec)", "SUM(dec)"}
			n := 1 + rng.Intn(3)
			sel := append([]string{}, keys...)
			for k := 0; k < n; k++ {
				sel = append(sel, aggs[rng.Intn(len(aggs))])
			}
			fmt.Fprintf(&sb, "SELECT %s FROM t", strings.Join(sel, ", "))
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, " WHERE %s", genPred(2))
			}
			fmt.Fprintf(&sb, " GROUP BY %s", strings.Join(keys, ", "))
		} else {
			fmt.Fprintf(&sb, "SELECT id, a, s FROM t")
			if rng.Intn(4) != 0 {
				fmt.Fprintf(&sb, " WHERE %s", genPred(2))
			}
			if rng.Intn(2) == 0 {
				ordered = true
				fmt.Fprintf(&sb, " ORDER BY a, id")
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(50))
				}
			}
		}
		src := sb.String()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			diffQuery(t, db, src, ordered)
		})
	}
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// TestFeatureMatrix asserts the capability claims of the paper's Figure 2b
// for this architecture: an interpreted-speed start (fast baseline tier),
// fast JIT compilation, optimizing compilation, and adaptive execution —
// all provided by the off-the-shelf engine.
func TestFeatureMatrix(t *testing.T) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.02, 42); err != nil {
		t.Fatal(err)
	}
	src, _ := wasmdb.TPCHQuery("Q1")

	// Fast JIT compilation: the baseline tier compiles faster than the
	// optimizing tier (take the best of a few runs — timings jitter under
	// CPU contention). The plan cache is off: a cache hit reports zero
	// compile time, and this test exists to measure compilation.
	best := func(b wasmdb.Backend, pick func(wasmdb.Stats) int64) (int64, *wasmdb.Result) {
		bestV := int64(1 << 62)
		var last *wasmdb.Result
		for i := 0; i < 3; i++ {
			res, err := db.Query(src, wasmdb.WithBackend(b), wasmdb.WithPlanCache(false))
			if err != nil {
				t.Fatal(err)
			}
			if v := pick(res.Stats); v < bestV {
				bestV = v
			}
			last = res
		}
		return bestV, last
	}
	loC, lo := best(wasmdb.BackendWasmLiftoff, func(s wasmdb.Stats) int64 { return int64(s.Liftoff) })
	tfC, tf := best(wasmdb.BackendWasmTurbofan, func(s wasmdb.Stats) int64 { return int64(s.Turbofan) })
	if loC == 0 || tfC == 0 {
		t.Fatalf("missing compile stats: %+v %+v", lo.Stats, tf.Stats)
	}
	if loC >= tfC {
		t.Errorf("baseline compile (%v) not faster than optimizing compile (%v)", loC, tfC)
	} else {
		t.Logf("compile asymmetry: liftoff %vns vs turbofan %vns (%.1fx)", loC, tfC, float64(tfC)/float64(loC))
	}
	// Optimizing compilation pays off at execution time.
	if tf.Stats.Execute >= lo.Stats.Execute {
		t.Logf("note: turbofan execute %v not faster than liftoff %v on this run",
			tf.Stats.Execute, lo.Stats.Execute)
	}

	// Adaptive execution: with small morsels, some calls run on each tier.
	ad, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithMorselRows(512))
	if err != nil {
		t.Fatal(err)
	}
	if ad.Stats.MorselsLiftoff+ad.Stats.MorselsTurbofan == 0 {
		t.Fatal("no morsels recorded")
	}
	if ad.Stats.MorselsTurbofan == 0 {
		t.Log("note: query finished before background optimization (acceptable on tiny data)")
	}

	// Hardware independence: the interchange format is genuine WebAssembly;
	// the same module bytes validate and decode.
	wat, err := db.ExplainWAT(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wat, "(module") {
		t.Error("no module generated")
	}
}

// FuzzAdversarialModuleExecution builds a syntactically valid but
// semantically hostile Wasm module from the fuzz input and executes it under
// every tier with fuel and memory budgets armed. The properties under test:
// no panic ever escapes the engine's call boundary, every failure is a typed
// error, and the instance survives to serve a well-behaved function
// afterwards. The generator deliberately emits wild addresses, division by
// fuzz-chosen constants, unbounded memory growth, and (rarely) genuine
// infinite loops — the fuel budget must contain all of it.
func FuzzAdversarialModuleExecution(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x80, 0xFF, 0x07, 0x13})
	f.Add([]byte("divide and conquer"))
	f.Add([]byte{0xE0, 0xE0, 0xE0}) // loop-heavy
	f.Add(bytes.Repeat([]byte{0x55, 0xAA}, 64))
	// memory.grow(2821 rem_u 1347 = 127) reaches the module's 128-page
	// maximum, then a store goes to 0x328 * 0x2841 = 0x7F0D28 on the last
	// page. Reserving is free under demand-zero memory, so it is the 64-page
	// budget that must end this one in ErrMemoryLimit.
	f.Add(growToMaxSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		bin := buildAdversarialModule(data)
		for _, tier := range []engine.Tier{engine.TierLiftoff, engine.TierTurbofan, engine.TierAdaptive} {
			m, err := engine.New(engine.Config{Tier: tier}).Compile(bin)
			if err != nil {
				// The generator should only emit valid modules; a rejection
				// is a generator bug worth knowing about.
				t.Fatalf("%v: generated module rejected: %v", tier, err)
			}
			inst, err := m.Instantiate(engine.Imports{})
			if err != nil {
				t.Fatalf("%v: instantiate: %v", tier, err)
			}
			inst.SetFuel(200_000)
			inst.SetMemoryBudget(64)
			if _, err := inst.Call("adv"); err != nil {
				// Traps, fuel exhaustion, and memory limits are legitimate
				// outcomes for hostile code — but only as typed errors.
				switch {
				case errors.Is(err, engine.ErrFuelExhausted),
					errors.Is(err, engine.ErrMemoryLimit):
				default:
					var te *rt.TrapError
					var mt *wmem.Trap
					if !errors.As(err, &te) && !errors.As(err, &mt) {
						t.Fatalf("%v: adv failed with untyped error %T: %v", tier, err, err)
					}
				}
			}
			// The guardrail invariant: whatever the adversarial function
			// did, the instance still answers.
			inst.SetFuel(10_000)
			got, err := inst.Call("ok")
			if err != nil || got[0] != 42 {
				t.Fatalf("%v: instance unusable after adversarial call: %v %v", tier, got, err)
			}
			if err := m.WaitOptimized(); err != nil {
				t.Fatalf("%v: background compile failed on valid module: %v", tier, err)
			}
		}
	})
}

// growToMaxSeed is the fuzz input that grows to the maximum and touches the
// last page (see FuzzAdversarialModuleExecution's seeds).
var growToMaxSeed = []byte{0x00, 0x0B, 0x05, 0x43, 0xA0, 0x03, 0x28, 0x41, 0x90, 0x00}

// TestGrowToMaxSeed pins what that seed does, so it keeps exercising the
// budget rather than silently turning into some other program: unbudgeted it
// reserves 128 pages and commits only the page it stores to; under the fuzz
// target's budget the grow is ErrMemoryLimit.
func TestGrowToMaxSeed(t *testing.T) {
	m, err := engine.New(engine.Config{Tier: engine.TierLiftoff}).Compile(buildAdversarialModule(growToMaxSeed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(engine.Imports{})
	if err != nil {
		t.Fatal(err)
	}
	inst.SetMemoryBudget(64)
	if _, err := inst.Call("adv"); !errors.Is(err, engine.ErrMemoryLimit) {
		t.Fatalf("budgeted: %v, want ErrMemoryLimit", err)
	}
	inst.SetMemoryBudget(0)
	if _, err := inst.Call("adv"); err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	mem := inst.Memory()
	if mem.Pages() != 128 || mem.Committed() != 1 || mem.U64(0x7F0D28) == 0 {
		t.Fatalf("pages %d, committed %d, last-page word %#x; want 128, 1, non-zero",
			mem.Pages(), mem.Committed(), mem.U64(0x7F0D28))
	}
}

// buildAdversarialModule translates fuzz bytes into a valid module with an
// "adv" function (the hostile payload) and an "ok" function (the liveness
// probe). A simulated operand-stack depth keeps the emission well-typed.
func buildAdversarialModule(data []byte) []byte {
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 128)

	adv := b.NewFunc("adv", wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	depth := 0
	live := true // false once an infinite loop makes the rest unreachable
	ctr := adv.AddLocal(wasm.I64)
	for i := 0; i < len(data) && live; i++ {
		op := data[i]
		var imm int64 = int64(op) * 0x9E3779B9 // spread fuzz bytes around
		if i+1 < len(data) {
			imm = int64(op)<<8 | int64(data[i+1])
		}
		switch {
		case depth < 2 || op < 0x30: // push a constant
			adv.I64Const(imm)
			depth++
		case op < 0x60: // arithmetic, including trapping division
			ops := []wasm.Opcode{wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul,
				wasm.OpI64DivS, wasm.OpI64RemU, wasm.OpI64Xor, wasm.OpI64Shl}
			adv.Op(ops[int(op)%len(ops)])
			depth--
		case op < 0x80: // load from a fuzz-chosen (usually wild) address
			adv.Op(wasm.OpI32WrapI64)
			adv.I64Load(uint32(op))
			// depth unchanged: pops address, pushes value
		case op < 0x98: // store through a fuzz-chosen address
			adv.Op(wasm.OpI32WrapI64)
			adv.I64Const(imm)
			adv.I64Store(0)
			depth--
		case op < 0xB0: // memory.grow by a fuzz-chosen page count
			adv.Op(wasm.OpI32WrapI64)
			adv.MemoryGrow()
			adv.Op(wasm.OpI64ExtendI32U)
		case op < 0xC8: // complete if/else unit consuming one value
			adv.Op(wasm.OpI32WrapI64)
			adv.If(wasm.BlockOf(wasm.I64))
			adv.I64Const(imm)
			adv.Else()
			adv.I64Const(-imm)
			adv.End()
		case op < 0xF0: // bounded counting loop (fuel-charged back edge)
			adv.I64Const(int64(op&0x3F) + 1)
			adv.LocalSet(ctr)
			adv.Loop(wasm.BlockVoid)
			adv.LocalGet(ctr)
			adv.I64Const(1)
			adv.Op(wasm.OpI64Sub)
			adv.LocalTee(ctr)
			adv.Op(wasm.OpI64Eqz)
			adv.Op(wasm.OpI32Eqz)
			adv.BrIf(0)
			adv.End()
		default: // rare: genuine infinite loop; only fuel can stop this
			for depth > 1 {
				adv.Op(wasm.OpI64Xor)
				depth--
			}
			if depth == 1 {
				adv.Drop()
				depth--
			}
			adv.Loop(wasm.BlockVoid)
			adv.Br(0)
			adv.End()
			live = false
		}
	}
	if live {
		for depth > 1 {
			adv.Op(wasm.OpI64Xor)
			depth--
		}
		if depth == 0 {
			adv.I64Const(0)
		}
	} else {
		// Unreachable dead code still has to satisfy the validator.
		adv.I64Const(0)
	}
	b.Export("adv", wasm.ExternFunc, adv.Index)

	ok := b.NewFunc("ok", wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	ok.I64Const(42)
	b.Export("ok", wasm.ExternFunc, ok.Index)
	return b.Bytes()
}
