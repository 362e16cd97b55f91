// Package costsched is the cost-model-driven scheduling layer: a
// deficit-round-robin (DRR) multi-tenant queue that bounds every tenant's
// share of *predicted* serving cost, and an admission tracker that sheds
// load when the predicted drain time of admitted work exceeds a deadline
// budget. Costs are predicted milliseconds from hwmodel's per-request
// Estimate — the scheduler is deliberately unit-agnostic and clock-free:
// it never reads time, only the costs it is handed, so its decisions are
// exactly reproducible in tests.
//
// The queue is not synchronized; callers (the httpapi batcher) hold their
// own mutex across calls, exactly as they did for the plain FIFO lanes
// this replaces.
package costsched

import "sort"

// DefaultQuantumMs is the per-round deficit refill when the caller does
// not choose one. DRR's fairness bound is (quantum + max item cost) per
// round, so the quantum trades scheduling granularity against pop cost;
// 250ms is a fraction of one predicted prefill at the paper's shapes.
const DefaultQuantumMs = 250

// entry is one queued item; costUs is its predicted cost in integer
// microseconds (costMicros).
type entry[T any] struct {
	v      T
	costUs int64
}

// tenantQ is one tenant's FIFO backlog plus its DRR credit and
// cumulative accounting (kept after the backlog drains, so metrics
// survive idle periods). All costs are integer microseconds, so a
// drained tenant's queued total is exactly zero whatever order its
// items were pushed and dispatched in.
type tenantQ[T any] struct {
	name      string
	entries   []entry[T]
	deficitUs int64

	queuedUs int64 // predicted µs currently queued
	servedUs int64 // cumulative predicted µs dispatched
	served   int64 // cumulative items dispatched
}

// Queue is a deficit-round-robin multi-tenant queue over predicted cost.
// Tenants with queued work sit in a round-robin ring; each visit grants a
// quantum of credit, and a tenant dispatches its FIFO head only when its
// credit covers the head's predicted cost. Over any backlogged interval
// every tenant therefore receives within (quantum + max item cost) of an
// equal share of dispatched predicted milliseconds — the fairness bound
// the serve path advertises.
//
// With a single tenant the ring degenerates to the exact FIFO the
// batcher's lanes used before: credit bookkeeping is bypassed entirely,
// so the default (no -tenant-header) configuration reproduces the
// untenanted scheduler decision-for-decision.
type Queue[T any] struct {
	quantumUs int64
	tenants   map[string]*tenantQ[T]
	ring      []*tenantQ[T]
	cur       int
	size      int
}

// NewQueue builds an empty queue; quantumMs <= 0 selects
// DefaultQuantumMs.
func NewQueue[T any](quantumMs float64) *Queue[T] {
	if quantumMs <= 0 {
		quantumMs = DefaultQuantumMs
	}
	return &Queue[T]{quantumUs: max(costMicros(quantumMs), 1), tenants: map[string]*tenantQ[T]{}}
}

// Len reports the queued item count across all tenants.
func (q *Queue[T]) Len() int { return q.size }

// Push appends v to tenant's FIFO backlog at the given predicted cost
// (negative costs are treated as free). A tenant whose backlog was empty
// joins the ring at the tail.
func (q *Queue[T]) Push(tenant string, costMs float64, v T) {
	cost := costMicros(costMs)
	t := q.tenants[tenant]
	if t == nil {
		t = &tenantQ[T]{name: tenant}
		q.tenants[tenant] = t
	}
	if len(t.entries) == 0 {
		q.ring = append(q.ring, t)
	}
	t.entries = append(t.entries, entry[T]{v: v, costUs: cost})
	t.queuedUs += cost
	q.size++
}

// Head returns the item the next Pop would dispatch, without dispatching
// it or moving any credit — the batcher peeks to apply its cold-lane
// deferral rules before committing.
func (q *Queue[T]) Head() (v T, tenant string, ok bool) {
	var zero T
	if q.size == 0 {
		return zero, "", false
	}
	if len(q.ring) == 1 {
		t := q.ring[0]
		return t.entries[0].v, t.name, true
	}
	// Simulate the Pop scan on copied credit.
	def := make([]int64, len(q.ring))
	for i, t := range q.ring {
		def[i] = t.deficitUs
	}
	cur := q.cur
	for {
		t := q.ring[cur]
		if def[cur] >= t.entries[0].costUs {
			return t.entries[0].v, t.name, true
		}
		def[cur] += q.quantumUs
		cur = (cur + 1) % len(q.ring)
	}
}

// Pop dispatches and returns the next item by deficit round robin, or
// ok=false on an empty queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	if len(q.ring) == 1 {
		// Single tenant: plain FIFO, no credit bookkeeping.
		return q.serveCur(), true
	}
	for {
		t := q.ring[q.cur]
		if t.deficitUs >= t.entries[0].costUs {
			return q.serveCur(), true
		}
		t.deficitUs += q.quantumUs
		q.cur = (q.cur + 1) % len(q.ring)
	}
}

// serveCur dispatches the FIFO head of the ring's current tenant,
// retiring the tenant from the ring (credit forfeited, per classic DRR)
// when its backlog drains.
func (q *Queue[T]) serveCur() T {
	t := q.ring[q.cur]
	head := t.entries[0]
	t.entries = t.entries[1:]
	if t.deficitUs -= head.costUs; t.deficitUs < 0 {
		t.deficitUs = 0
	}
	t.queuedUs -= head.costUs
	t.servedUs += head.costUs
	t.served++
	q.size--
	if len(t.entries) == 0 {
		t.deficitUs = 0
		q.ring = append(q.ring[:q.cur], q.ring[q.cur+1:]...)
		if q.cur >= len(q.ring) {
			q.cur = 0
		}
	}
	return head.v
}

// TenantStats is one tenant's scheduling accounting.
type TenantStats struct {
	Tenant   string  `json:"tenant"`
	Queued   int     `json:"queued"`
	QueuedMs float64 `json:"queued_predicted_ms"`
	Served   int64   `json:"served"`
	ServedMs float64 `json:"served_predicted_ms"`
}

// Stats returns per-tenant accounting for every tenant ever seen, sorted
// by tenant name for deterministic metrics output.
func (q *Queue[T]) Stats() []TenantStats {
	out := make([]TenantStats, 0, len(q.tenants))
	for _, t := range q.tenants {
		out = append(out, TenantStats{
			Tenant:   t.name,
			Queued:   len(t.entries),
			QueuedMs: millis(t.queuedUs),
			Served:   t.served,
			ServedMs: millis(t.servedUs),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
