package costsched

import (
	"math"
	"sync"
)

// Retry-After clamps: a drained queue still tells the client to back off
// a full second (sub-second retries thrash the admission gate), and a
// pathological backlog never advertises more than ten minutes (by then
// the prediction is stale anyway).
const (
	retryAfterMinSec = 1
	retryAfterMaxSec = 600
)

// RetryAfterSeconds converts a predicted drain time to the Retry-After
// header value: ceiling seconds, clamped to [1s, 600s].
func RetryAfterSeconds(drainMs float64) int {
	if math.IsNaN(drainMs) || drainMs <= 0 {
		return retryAfterMinSec
	}
	sec := int(math.Ceil(drainMs / 1000))
	if sec < retryAfterMinSec {
		return retryAfterMinSec
	}
	if sec > retryAfterMaxSec {
		return retryAfterMaxSec
	}
	return sec
}

// Admission tracks the predicted milliseconds of admitted work still in
// flight and sheds new work once the predicted drain time — inflight
// predicted ms divided by the worker count — would exceed the deadline
// budget. With budget 0 it never sheds and only tracks, which is what
// prices the Retry-After header on depth-full 503s. Safe for concurrent
// use.
//
// The in-flight total is an integer count of microseconds (see
// costMicros), so a Done releases exactly what its Admit added and the
// ledger returns to exactly zero whatever order requests finish in.
type Admission struct {
	budgetMs float64
	workers  int

	mu         sync.Mutex
	inflight   int
	inflightUs int64
	admitted   int64
	shed       int64
}

// maxCostUs caps one cost in the integer ledgers (about 285 years), so
// sums of any realistic number of items cannot overflow int64.
const maxCostUs = 1 << 53

// costMicros converts a predicted cost in milliseconds to the integer
// microseconds the ledgers keep, rounding to nearest. Negative and NaN
// costs are free; huge or infinite ones are capped at maxCostUs. Equal
// inputs always give equal outputs, which is what makes every
// add/subtract pair cancel exactly.
func costMicros(costMs float64) int64 {
	if !(costMs > 0) {
		return 0
	}
	us := math.Round(costMs * 1000)
	if us >= maxCostUs {
		return maxCostUs
	}
	return int64(us)
}

// millis converts ledger microseconds back to milliseconds for callers.
func millis(us int64) float64 { return float64(us) / 1000 }

// NewAdmission builds a tracker for the given deadline budget (<= 0
// disables shedding) spread across workers (< 1 treated as 1).
func NewAdmission(budgetMs float64, workers int) *Admission {
	if workers < 1 {
		workers = 1
	}
	if budgetMs < 0 {
		budgetMs = 0
	}
	return &Admission{budgetMs: budgetMs, workers: workers}
}

// BudgetMs reports the configured deadline budget (0 = shedding off).
func (a *Admission) BudgetMs() float64 { return a.budgetMs }

// Admit accounts one request of predicted costMs. ok=false means the
// request must be shed: admitting it would push the predicted drain time
// past the budget. drainMs is the predicted drain of work already in
// flight (excluding the refused request) — what Retry-After is computed
// from. On ok the cost is added to the in-flight total and the caller
// must pair the call with Done.
func (a *Admission) Admit(costMs float64) (ok bool, drainMs float64) {
	cost := costMicros(costMs)
	a.mu.Lock()
	defer a.mu.Unlock()
	drain := a.drainMsLocked()
	if a.budgetMs > 0 && millis(a.inflightUs+cost)/float64(a.workers) > a.budgetMs {
		a.shed++
		return false, drain
	}
	a.inflight++
	a.inflightUs += cost
	a.admitted++
	return true, drain
}

// Done releases an admitted request's cost; costMs must be the value
// passed to the matching Admit.
func (a *Admission) Done(costMs float64) {
	cost := costMicros(costMs)
	a.mu.Lock()
	a.inflight--
	a.inflightUs -= cost
	// A Done without its Admit, or with a different cost, must never
	// leave phantom backlog (or a negative one) behind.
	if a.inflight < 0 {
		a.inflight = 0
	}
	if a.inflightUs < 0 || a.inflight == 0 {
		a.inflightUs = 0
	}
	a.mu.Unlock()
}

// DrainMs returns the predicted drain time of the work now in flight.
func (a *Admission) DrainMs() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drainMsLocked()
}

func (a *Admission) drainMsLocked() float64 { return millis(a.inflightUs) / float64(a.workers) }

// AdmissionStats is a point-in-time snapshot of the tracker.
type AdmissionStats struct {
	BudgetMs   float64 `json:"budget_ms"`
	Inflight   int     `json:"inflight"`
	InflightMs float64 `json:"inflight_predicted_ms"`
	DrainMs    float64 `json:"predicted_drain_ms"`
	Admitted   int64   `json:"admitted"`
	Shed       int64   `json:"shed_over_budget"`
}

// Stats returns the current snapshot.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		BudgetMs:   a.budgetMs,
		Inflight:   a.inflight,
		InflightMs: millis(a.inflightUs),
		DrainMs:    a.drainMsLocked(),
		Admitted:   a.admitted,
		Shed:       a.shed,
	}
}
