package wasmdb_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"wasmdb"
	"wasmdb/internal/faultpoint"
)

// runawayJoinDB builds a database where `SELECT COUNT(*) FROM a, b WHERE
// a.k = b.k` explodes into an n:m join (every key equal): n*m pairs of work
// inside a handful of morsel calls — a query the host cannot stop without
// reaching inside generated code.
func runawayJoinDB(t *testing.T, rows int) *wasmdb.DB {
	t.Helper()
	db := wasmdb.Open()
	for _, name := range []string{"a", "b"} {
		if err := db.Exec(fmt.Sprintf("CREATE TABLE %s (k INT)", name)); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString(fmt.Sprintf("INSERT INTO %s VALUES (1)", name))
		for i := 1; i < rows; i++ {
			sb.WriteString(",(1)")
		}
		if err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func checkAlive(t *testing.T, db *wasmdb.DB) {
	t.Helper()
	res, err := db.Query("SELECT COUNT(*) FROM a WHERE k = 1", wasmdb.WithBackend(wasmdb.BackendWasmLiftoff))
	if err != nil {
		t.Fatalf("database unusable after failed query: %v", err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("sanity query returned %d rows", res.NumRows())
	}
}

func TestTimeoutStopsRunawayJoin(t *testing.T) {
	db := runawayJoinDB(t, 4000) // 16M join pairs
	start := time.Now()
	_, err := db.Query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k",
		wasmdb.WithBackend(wasmdb.BackendWasmLiftoff), wasmdb.WithTimeout(50*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runaway join returned %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("timeout took %v to take effect", el)
	}
	checkAlive(t, db)
}

func TestFuelStopsRunawayJoin(t *testing.T) {
	db := runawayJoinDB(t, 4000)
	_, err := db.Query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k",
		wasmdb.WithBackend(wasmdb.BackendWasmLiftoff), wasmdb.WithFuel(100_000))
	if !errors.Is(err, wasmdb.ErrFuelExhausted) {
		t.Fatalf("runaway join returned %v, want ErrFuelExhausted", err)
	}
	checkAlive(t, db)
}

// TestGuardrailsStopInjectedInfiniteLoop forces the code generator to open
// every pipeline with a spin loop — a morsel call that never returns — and
// proves both budgets stop it with their typed errors.
func TestGuardrailsStopInjectedInfiniteLoop(t *testing.T) {
	db := runawayJoinDB(t, 10)
	faultpoint.Enable("core-infinite-loop", faultpoint.Always(errors.New("arm")))
	defer faultpoint.Disable("core-infinite-loop")

	for _, backend := range []wasmdb.Backend{wasmdb.BackendWasmLiftoff, wasmdb.BackendWasmTurbofan} {
		_, err := db.Query("SELECT COUNT(*) FROM a",
			wasmdb.WithBackend(backend), wasmdb.WithFuel(50_000))
		if !errors.Is(err, wasmdb.ErrFuelExhausted) {
			t.Fatalf("%v: infinite loop under fuel returned %v, want ErrFuelExhausted", backend, err)
		}
		_, err = db.Query("SELECT COUNT(*) FROM a",
			wasmdb.WithBackend(backend), wasmdb.WithTimeout(50*time.Millisecond))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: infinite loop under timeout returned %v, want DeadlineExceeded", backend, err)
		}
	}
	faultpoint.Disable("core-infinite-loop")
	checkAlive(t, db)
}

func TestTurbofanFailureFallsBackToLiftoff(t *testing.T) {
	db := runawayJoinDB(t, 2000)
	faultpoint.Enable("turbofan-compile", faultpoint.Always(errors.New("injected tier-2 failure")))
	defer faultpoint.Disable("turbofan-compile")

	res, err := db.Query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k",
		wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithWaitOptimized(), wasmdb.WithMorselRows(256))
	if err != nil {
		t.Fatalf("query failed instead of degrading to liftoff: %v", err)
	}
	if got := res.Value(0, 0).(int64); got != 2000*2000 {
		t.Errorf("COUNT(*) = %d, want %d", got, 2000*2000)
	}
	if res.Stats.TurbofanFailed == 0 {
		t.Error("Stats.TurbofanFailed = 0, want > 0")
	}
	if res.Stats.MorselsTurbofan != 0 {
		t.Errorf("MorselsTurbofan = %d after total tier-2 failure", res.Stats.MorselsTurbofan)
	}
	if res.Stats.MorselsLiftoff == 0 {
		t.Error("MorselsLiftoff = 0, expected the whole query on baseline code")
	}
}

func TestMemoryLimitTyped(t *testing.T) {
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE g (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO g VALUES (0, 1)")
	for i := 1; i < 120_000; i++ {
		fmt.Fprintf(&sb, ",(%d, 1)", i)
	}
	if err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	const agg = "SELECT k, SUM(v) FROM g GROUP BY k"

	// Unbudgeted, the aggregation grows its hash table and succeeds.
	res, err := db.Query(agg, wasmdb.WithBackend(wasmdb.BackendWasmLiftoff))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 120_000 {
		t.Fatalf("groups = %d, want 120000", res.NumRows())
	}
	// A one-page budget makes the first growth fail with the typed error.
	_, err = db.Query(agg, wasmdb.WithBackend(wasmdb.BackendWasmLiftoff), wasmdb.WithMemoryLimit(64*1024))
	if !errors.Is(err, wasmdb.ErrMemoryLimit) {
		t.Fatalf("budgeted aggregation returned %v, want ErrMemoryLimit", err)
	}

	// The wmem-grow fault point forces the same failure without a budget.
	faultpoint.Enable("wmem-grow", faultpoint.Always(errors.New("injected grow failure")))
	_, err = db.Query(agg, wasmdb.WithBackend(wasmdb.BackendWasmLiftoff))
	faultpoint.Disable("wmem-grow")
	if !errors.Is(err, wasmdb.ErrMemoryLimit) {
		t.Fatalf("injected grow failure returned %v, want ErrMemoryLimit", err)
	}

	// The database keeps serving queries.
	if res, err = db.Query("SELECT COUNT(*) FROM g"); err != nil || res.Value(0, 0).(int64) != 120_000 {
		t.Fatalf("database unusable after memory-limit failures: %v", err)
	}
}

// TestMemoryLimitNearMaxUint64 pins WithMemoryLimit's rounding at the top of
// its range: a limit within 64 KiB of math.MaxUint64 rounds up to the
// 65 536-page cap, as a 4 GiB limit does, instead of wrapping past zero to a
// one-page budget that fails every query whose heap grows. A GROUP BY that
// grows its table must succeed under each and return the unbudgeted rows.
func TestMemoryLimitNearMaxUint64(t *testing.T) {
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE g (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO g VALUES (0, 1)")
	for i := 1; i < 60_000; i++ {
		fmt.Fprintf(&sb, ",(%d, %d)", i, i%7)
	}
	if err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	const agg = "SELECT k, SUM(v) FROM g GROUP BY k ORDER BY k"
	want, err := db.Query(agg, wasmdb.WithBackend(wasmdb.BackendWasmLiftoff))
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []uint64{math.MaxUint64, math.MaxUint64 - 64*1024 + 2, 65536 * 64 * 1024} {
		res, err := db.Query(agg, wasmdb.WithBackend(wasmdb.BackendWasmLiftoff), wasmdb.WithMemoryLimit(limit))
		if err != nil {
			t.Fatalf("WithMemoryLimit(%d): %v", limit, err)
		}
		if res.Format() != want.Format() {
			t.Fatalf("WithMemoryLimit(%d): rows differ from the unbudgeted query", limit)
		}
	}
}

func TestQueryContextPreCanceled(t *testing.T) {
	db := runawayJoinDB(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []wasmdb.Backend{wasmdb.BackendWasm, wasmdb.BackendVolcano, wasmdb.BackendVectorized} {
		_, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM a", wasmdb.WithBackend(backend))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: pre-canceled query returned %v, want context.Canceled", backend, err)
		}
	}
}

// TestAutoEnforcesFuel: auto always compiles, so a fuel budget binds it on
// every shape, the smallest included — auto-mixed's 200-row supplier and
// 3 k-row customer shapes, which interpreter bands once ran without any
// budget.
func TestAutoEnforcesFuel(t *testing.T) {
	db := autoMixedDB(t)
	for _, s := range autoMixed[:4] {
		res, err := db.Query(s.src, wasmdb.WithBackend(wasmdb.BackendAuto), wasmdb.WithFuel(1))
		if !errors.Is(err, wasmdb.ErrFuelExhausted) {
			t.Errorf("%s: auto under WithFuel(1) returned %v (%v), want ErrFuelExhausted", s.src, err, res != nil)
		}
	}
}

// TestInterpretersRejectBudgets: volcano and vectorized run no guest code to
// charge fuel to and allocate no linear memory, so they refuse a fuel or
// memory budget with an error naming it instead of running without it.
func TestInterpretersRejectBudgets(t *testing.T) {
	db := runawayJoinDB(t, 10)
	for _, backend := range []wasmdb.Backend{wasmdb.BackendVolcano, wasmdb.BackendVectorized} {
		for _, c := range []struct {
			name string
			opt  wasmdb.Option
		}{
			{"WithFuel", wasmdb.WithFuel(1 << 40)},
			{"WithMemoryLimit", wasmdb.WithMemoryLimit(1 << 30)},
		} {
			_, err := db.Query("SELECT COUNT(*) FROM a", wasmdb.WithBackend(backend), c.opt)
			if err == nil || !strings.Contains(err.Error(), c.name) {
				t.Errorf("%v with %s: error %v, want one naming %s", backend, c.name, err, c.name)
			}
		}
	}
}

// TestConstantRegionOverflowIsAnError: a query whose string constants exceed
// the generated module's constant region must fail with an error, not a
// panic out of the public API.
func TestConstantRegionOverflowIsAnError(t *testing.T) {
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE s (c CHAR(32))"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("INSERT INTO s VALUES ('hello')"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("SELECT COUNT(*) FROM s WHERE c = 'x'")
	for i := 0; i < 4096; i++ {
		fmt.Fprintf(&sb, " OR c = 'pad-%028d'", i)
	}
	_, err := db.Query(sb.String())
	if err == nil {
		t.Fatal("oversized constant region did not fail")
	}
	if !strings.Contains(err.Error(), "constant region") {
		t.Errorf("error %q does not name the constant region", err)
	}
	// The database keeps serving queries.
	res, err := db.Query("SELECT COUNT(*) FROM s WHERE c = 'hello'")
	if err != nil || res.Value(0, 0).(int64) != 1 {
		t.Fatalf("database unusable after overflow: %v", err)
	}
}

// TestFuelIsTierIndependent pins the contract that lets Stats.FuelUsed mean
// something under adaptive execution: the same query burns the same fuel
// whether its morsels run baseline or optimized code (one unit per function
// entry and per completed loop iteration), so the figure cannot depend on
// when tier-up lands. The optimizing tier rotates loops; the rotated branch
// and the explicit charge at the loop exit together have to add up to what
// the back-edge jump charged.
func TestFuelIsTierIndependent(t *testing.T) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.002, 42); err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"scan loop": "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity < 24",
	}
	for _, id := range []string{"Q1", "Q3", "Q6"} {
		queries[id], _ = wasmdb.TPCHQuery(id)
	}
	for name, src := range queries {
		used := map[wasmdb.Backend]int64{}
		for _, backend := range []wasmdb.Backend{wasmdb.BackendWasmLiftoff, wasmdb.BackendWasmTurbofan} {
			res, err := db.Query(src, wasmdb.WithBackend(backend), wasmdb.WithFuel(1<<40))
			if err != nil {
				t.Fatalf("%s on %v: %v", name, backend, err)
			}
			used[backend] = res.Stats.FuelUsed
		}
		lo, tf := used[wasmdb.BackendWasmLiftoff], used[wasmdb.BackendWasmTurbofan]
		if lo <= 0 || lo != tf {
			t.Errorf("%s: FuelUsed liftoff %d, turbofan %d; want equal and positive", name, lo, tf)
		}
	}
}
