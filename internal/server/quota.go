package server

import (
	"errors"
	"net/http"
	"sync"
)

// errQuotaExceeded means the tenant is at its concurrent-job cap — the
// per-tenant flavor of errQueueFull, mapped to the same 429 + Retry-After
// backpressure by the handlers.
var errQuotaExceeded = errors.New("server: tenant quota exceeded")

// tenantQuotas caps each tenant's queued-plus-running jobs. The admission
// story composes: the queue bound protects the process, the quota protects
// tenants from each other. A limit of 0 disables the
// whole mechanism (acquire always succeeds and accounts nothing).
type tenantQuotas struct {
	mu       sync.Mutex
	limit    int
	inflight map[string]int
	rejected uint64
}

func newTenantQuotas(limit int) *tenantQuotas {
	return &tenantQuotas{limit: limit, inflight: make(map[string]int)}
}

// acquire charges tenant one admission slot, or reports it over quota.
// On success the caller owes exactly one release (jobs carry the tenant
// so the worker pool can settle the debt wherever the job resolves).
func (q *tenantQuotas) acquire(tenant string) error {
	if q.limit <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[tenant] >= q.limit {
		q.rejected++
		return errQuotaExceeded
	}
	q.inflight[tenant]++
	return nil
}

// release returns tenant's slot (a no-op with quotas disabled).
func (q *tenantQuotas) release(tenant string) {
	if q.limit <= 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := q.inflight[tenant]; n > 1 {
		q.inflight[tenant] = n - 1
	} else {
		delete(q.inflight, tenant)
	}
}

// rejections returns the lifetime count of over-quota rejections.
func (q *tenantQuotas) rejections() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rejected
}

// tenantOf returns the request's quota bucket: the X-Tenant header, or
// "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}
