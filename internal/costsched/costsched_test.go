package costsched

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestSingleTenantIsFIFO: with one tenant the DRR queue must be
// indistinguishable from the plain FIFO lane it replaced — order
// preserved exactly, regardless of costs.
func TestSingleTenantIsFIFO(t *testing.T) {
	q := NewQueue[int](DefaultQuantumMs)
	costs := []float64{900, 5, 0, 10000, 3, 3, 42}
	for i, c := range costs {
		q.Push("", c, i)
	}
	for i := range costs {
		if v, tenant, ok := q.Head(); !ok || v != i || tenant != "" {
			t.Fatalf("Head = (%d, %q, %v), want (%d, \"\", true)", v, tenant, ok, i)
		}
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue must report !ok")
	}
	if _, _, ok := q.Head(); ok {
		t.Fatal("Head on empty queue must report !ok")
	}
}

// TestTenantFIFOWithinTenant: DRR may interleave tenants, but each
// tenant's own items must dispatch in arrival order.
func TestTenantFIFOWithinTenant(t *testing.T) {
	q := NewQueue[[2]int](100)
	rng := rand.New(rand.NewSource(7))
	tenants := []string{"a", "b", "c"}
	for i := 0; i < 60; i++ {
		k := i % len(tenants)
		q.Push(tenants[k], 50+900*rng.Float64(), [2]int{k, i / len(tenants)})
	}
	next := map[int]int{}
	for q.Len() > 0 {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("Pop failed with items queued")
		}
		if v[1] != next[v[0]] {
			t.Fatalf("tenant %d dispatched item %d, want %d (FIFO violated)", v[0], v[1], next[v[0]])
		}
		next[v[0]]++
	}
}

// TestHeadMatchesPop: Head must predict exactly what Pop dispatches, at
// every step of a heterogeneous multi-tenant drain.
func TestHeadMatchesPop(t *testing.T) {
	q := NewQueue[int](75)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		q.Push([]string{"x", "y", "z", "w"}[rng.Intn(4)], 1000*rng.Float64(), i)
	}
	for q.Len() > 0 {
		hv, _, hok := q.Head()
		pv, pok := q.Pop()
		if !hok || !pok || hv != pv {
			t.Fatalf("Head predicted %d (ok=%v), Pop dispatched %d (ok=%v)", hv, hok, pv, pok)
		}
	}
}

// TestFairnessBound is the DRR guarantee the serve path advertises: over
// any interval where every tenant stays backlogged, dispatched predicted
// milliseconds per tenant stay within (quantum + max item cost) of the
// equal share — even when one tenant's items are 20x more expensive and
// another floods the queue with cheap work.
func TestFairnessBound(t *testing.T) {
	const quantum = 250.0
	q := NewQueue[string](quantum)
	costs := map[string]float64{"cheap": 50, "mid": 400, "expensive": 1000}
	maxCost := 1000.0
	// Keep every tenant deeply backlogged; the flood tenant pushes 4x
	// the items (it must NOT get 4x the service).
	for i := 0; i < 400; i++ {
		q.Push("cheap", costs["cheap"], "cheap")
	}
	for i := 0; i < 100; i++ {
		q.Push("mid", costs["mid"], "mid")
		q.Push("expensive", costs["expensive"], "expensive")
	}

	served := map[string]float64{}
	var total float64
	pops := 0
	for q.Len() > 0 {
		v, _ := q.Pop()
		served[v] += costs[v]
		total += costs[v]
		pops++
		// While all three tenants remain backlogged, check the bound.
		stats := q.Stats()
		backlogged := 0
		for _, s := range stats {
			if s.Queued > 0 {
				backlogged++
			}
		}
		if backlogged < 3 {
			break
		}
		share := total / 3
		for tenant, ms := range served {
			if diff := math.Abs(ms - share); diff > quantum+maxCost {
				t.Fatalf("after %d pops tenant %q served %.0fms vs equal share %.0fms (diff %.0f > bound %.0f)",
					pops, tenant, ms, share, diff, quantum+maxCost)
			}
		}
	}
	if pops < 100 {
		t.Fatalf("backlog collapsed after only %d pops; test did not exercise the bound", pops)
	}
}

func TestQueueStats(t *testing.T) {
	q := NewQueue[int](0) // 0 selects the default quantum
	q.Push("b", 100, 1)
	q.Push("a", 200, 2)
	q.Push("a", -50, 3) // negative cost clamps to free
	st := q.Stats()
	if len(st) != 2 || st[0].Tenant != "a" || st[1].Tenant != "b" {
		t.Fatalf("Stats not sorted by tenant: %+v", st)
	}
	if st[0].Queued != 2 || st[0].QueuedMs != 200 {
		t.Fatalf("tenant a stats = %+v", st[0])
	}
	for q.Len() > 0 {
		q.Pop()
	}
	st = q.Stats()
	for _, s := range st {
		if s.Queued != 0 || s.QueuedMs != 0 {
			t.Fatalf("drained tenant still shows backlog: %+v", s)
		}
	}
	if st[0].Served != 2 || st[0].ServedMs != 200 || st[1].Served != 1 || st[1].ServedMs != 100 {
		t.Fatalf("cumulative served accounting wrong: %+v", st)
	}
}

// TestRetryAfterSeconds pins the clamp contract: never below 1s (even
// for an empty queue), ceiling seconds in between, capped at 600s.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		drainMs float64
		want    int
	}{
		{-100, 1},
		{0, 1},
		{1, 1},
		{999, 1},
		{1000, 1},
		{1001, 2},
		{2500, 3},
		{12345, 13},
		{599_001, 600},
		{600_000, 600},
		{10_000_000, 600},
		{math.NaN(), 1},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.drainMs); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.drainMs, got, c.want)
		}
	}
}

func TestAdmissionShedsOverBudget(t *testing.T) {
	// Budget 1000ms across 2 workers: 2000ms of predicted work fits.
	a := NewAdmission(1000, 2)
	if ok, _ := a.Admit(1500); !ok {
		t.Fatal("first request within budget was shed")
	}
	if ok, _ := a.Admit(500); !ok {
		t.Fatal("second request within budget was shed")
	}
	ok, drain := a.Admit(1)
	if ok {
		t.Fatal("over-budget request was admitted")
	}
	if drain != 1000 {
		t.Fatalf("drain at shed = %v, want 1000 (2000ms inflight / 2 workers)", drain)
	}
	st := a.Stats()
	if st.Admitted != 2 || st.Shed != 1 || st.Inflight != 2 || st.InflightMs != 2000 || st.DrainMs != 1000 {
		t.Fatalf("stats = %+v", st)
	}
	// Releasing work reopens the gate.
	a.Done(1500)
	if ok, _ := a.Admit(1); !ok {
		t.Fatal("request shed after capacity was released")
	}
	if got := a.DrainMs(); got != 501.0/2 {
		t.Fatalf("DrainMs = %v, want %v", got, 501.0/2)
	}
}

func TestAdmissionDisabledTracksOnly(t *testing.T) {
	a := NewAdmission(0, 4)
	for i := 0; i < 100; i++ {
		if ok, _ := a.Admit(1e6); !ok {
			t.Fatal("budget 0 must never shed")
		}
	}
	if a.BudgetMs() != 0 {
		t.Fatalf("BudgetMs = %v, want 0", a.BudgetMs())
	}
	if got := a.DrainMs(); got != 100*1e6/4 {
		t.Fatalf("DrainMs = %v", got)
	}
	// Negative budget normalizes to disabled, workers < 1 to 1.
	b := NewAdmission(-5, 0)
	if ok, _ := b.Admit(math.NaN()); !ok {
		t.Fatal("NaN cost must clamp to free and admit")
	}
	if b.DrainMs() != 0 {
		t.Fatalf("NaN cost leaked into inflight: %v", b.DrainMs())
	}
}

// TestAdmissionDriftFloor: mismatched Done rounding can never leave a
// phantom negative backlog behind.
func TestAdmissionDriftFloor(t *testing.T) {
	a := NewAdmission(0, 1)
	a.Admit(100)
	a.Done(100.0000001)
	if st := a.Stats(); st.Inflight != 0 || st.InflightMs != 0 {
		t.Fatalf("drift left inflight state: %+v", st)
	}
	a.Done(50) // spurious Done: floors at zero, no panic
	if st := a.Stats(); st.Inflight != 0 || st.InflightMs != 0 {
		t.Fatalf("spurious Done corrupted state: %+v", st)
	}
}

func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(0, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if ok, _ := a.Admit(7); ok {
					a.Done(7)
				}
			}
		}()
	}
	wg.Wait()
	if st := a.Stats(); st.Inflight != 0 || st.InflightMs != 0 || st.Admitted != 8000 {
		t.Fatalf("concurrent accounting drifted: %+v", st)
	}
}

// TestLedgersDrainToExactZero: the admission and DRR ledgers count
// integer microseconds, so however the same costs are added and removed
// — any completion order, any interleaving of pushes and pops — a
// drained ledger reads exactly zero. The costs are fractions binary
// floats cannot represent; the test first confirms that float64 running
// sums over them do drift, so it would catch a return to float ledgers.
func TestLedgersDrainToExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	costs := make([]float64, 64)
	for i := range costs {
		costs[i] = 0.1 + float64(rng.Intn(5000))/3 + 1e-3*float64(i%7)
	}

	floatDrift := false
	for trial := 0; trial < 20; trial++ {
		var sum float64
		for _, c := range costs {
			sum += c
		}
		for _, i := range rng.Perm(len(costs)) {
			sum -= costs[i]
		}
		if sum != 0 {
			floatDrift = true
		}
	}
	if !floatDrift {
		t.Fatal("float64 sums over these costs never drift; the test would not catch float ledgers")
	}

	for trial := 0; trial < 20; trial++ {
		a := NewAdmission(0, 3)
		for _, c := range costs {
			if ok, _ := a.Admit(c); !ok {
				t.Fatal("tracking-only admission shed a request")
			}
		}
		for _, i := range rng.Perm(len(costs)) {
			a.Done(costs[i])
		}
		if st := a.Stats(); st.Inflight != 0 || st.InflightMs != 0 || st.DrainMs != 0 {
			t.Fatalf("trial %d: drained admission ledger not exactly zero: %+v", trial, st)
		}

		q := NewQueue[int](37.3)
		tenants := []string{"acme", "globex", "initech"}
		wantServed := map[string]int64{}
		for _, i := range rng.Perm(len(costs)) {
			tenant := tenants[rng.Intn(len(tenants))]
			q.Push(tenant, costs[i], i)
			wantServed[tenant] += costMicros(costs[i])
			if rng.Intn(3) == 0 {
				q.Pop()
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
		for _, st := range q.Stats() {
			if st.Queued != 0 || st.QueuedMs != 0 {
				t.Fatalf("trial %d: tenant %q still queued after drain: %+v", trial, st.Tenant, st)
			}
			if st.ServedMs != millis(wantServed[st.Tenant]) {
				t.Fatalf("trial %d: tenant %q served %v ms, want %v", trial, st.Tenant, st.ServedMs, millis(wantServed[st.Tenant]))
			}
		}
	}
}

// TestCostMicros pins the conversion every ledger entry goes through.
func TestCostMicros(t *testing.T) {
	for _, c := range []struct {
		ms   float64
		want int64
	}{
		{0, 0}, {-3, 0}, {math.NaN(), 0}, {0.0004, 0}, {0.0005, 1},
		{1.2345, 1235}, {250, 250000}, {math.Inf(1), maxCostUs}, {1e300, maxCostUs},
	} {
		if got := costMicros(c.ms); got != c.want {
			t.Errorf("costMicros(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
}
