package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Gateway errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrUnauthenticated rejects requests without a valid bearer token
	// while a tenant registry is configured (HTTP 401).
	ErrUnauthenticated = errors.New("server: missing or unknown bearer token")
	// ErrForbidden rejects requests whose token maps to a disabled
	// tenant, or actions on another tenant's jobs (HTTP 403).
	ErrForbidden = errors.New("server: forbidden")
)

// QuotaError rejects a submission that would push a tenant past one of
// its quotas, or one arriving faster than its token bucket refills
// (HTTP 429). RetryAfter, when positive, is surfaced in the
// Retry-After response header so well-behaved clients back off for
// exactly as long as the bucket needs.
type QuotaError struct {
	Tenant     string
	Quota      string // "rate", "queued", or "queue" (shared capacity)
	Limit      int
	RetryAfter time.Duration
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("server: tenant %s over its %s quota (limit %d)", e.Tenant, e.Quota, e.Limit)
}

// Tenant is one principal of the gateway: an identity (bearer token),
// its fair-share parameters, and its quotas. The zero value of every
// quota field means "unlimited", so a registry listing only names and
// tokens authenticates without constraining anyone.
type Tenant struct {
	// Name identifies the tenant in job attribution, metrics, and the
	// journal. Required, unique.
	Name string `json:"name"`
	// Token is the bearer credential (Authorization: Bearer <token>).
	// A tenant without a token cannot authenticate directly; it can
	// still be attributed jobs by a Gateway principal.
	Token string `json:"token,omitempty"`
	// Disabled rejects the tenant's requests with 403 while keeping its
	// history (metrics, journal attribution) intact.
	Disabled bool `json:"disabled,omitempty"`
	// Weight is the tenant's fair share of the staging loop relative to
	// other tenants in the same priority class (<= 0 means 1): a
	// weight-2 tenant is picked twice as often as a weight-1 one while
	// both have queued work.
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's scheduling class (default 0). Queued
	// work of a strictly higher class is always picked first, and on a
	// full queue a higher-class submission may preempt queued — never
	// running — lower-class flights.
	Priority int `json:"priority,omitempty"`
	// MaxQueued bounds how many of the tenant's jobs may wait in the
	// queued state at once (0 = unlimited).
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxConcurrent bounds how many of the tenant's simulations may run
	// at once (0 = unlimited). Flights beyond it stay queued until one
	// finishes, without blocking other tenants' work.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// RatePerSec refills the tenant's submission token bucket (0 =
	// unlimited). Each POST /v1/jobs costs one token; an empty bucket
	// answers 429 with Retry-After.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (<= 0 means max(1, RatePerSec)).
	Burst int `json:"burst,omitempty"`
	// Gateway marks an operator or service account: it sees every
	// tenant's jobs, and its submissions may attribute jobs to other
	// tenants via JobSpec.Tenant, so quotas and attribution follow the
	// tenant it acts for instead of the account itself.
	Gateway bool `json:"gateway,omitempty"`
}

// weight returns the effective fair-share weight.
func (t Tenant) weight() int {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// burst returns the effective token-bucket capacity.
func (t Tenant) burst() float64 {
	if t.Burst > 0 {
		return float64(t.Burst)
	}
	if t.RatePerSec > 1 {
		return t.RatePerSec
	}
	return 1
}

// tenantState is one tenant's registry entry plus its live token
// bucket. Guarded by Registry.mu.
type tenantState struct {
	Tenant
	tokens      float64   // current bucket level, always in [0, burst]
	refilled    time.Time // last refill instant
	rateLimited uint64    // submissions rejected by the bucket
}

// Registry is the gateway's tenant table: token -> tenant for
// authentication, name -> quotas for scheduling and accounting. All
// methods are safe on a nil receiver — a nil registry is "open mode",
// where every request is anonymous, unlimited, and scheduled exactly
// like the pre-gateway daemon.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*tenantState
	byToken map[string]*tenantState
	now     func() time.Time // test hook; time.Now when nil
}

// registryFile is the on-disk format of -tenants.
type registryFile struct {
	Tenants []Tenant `json:"tenants"`
}

// NewRegistry builds a registry from explicit tenant entries,
// rejecting duplicate names or tokens.
func NewRegistry(tenants []Tenant) (*Registry, error) {
	r := &Registry{byName: map[string]*tenantState{}, byToken: map[string]*tenantState{}}
	for i, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("server: tenant %d has no name", i)
		}
		if _, dup := r.byName[t.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.Name)
		}
		st := &tenantState{Tenant: t, tokens: t.burst()}
		r.byName[t.Name] = st
		if t.Token != "" {
			if _, dup := r.byToken[t.Token]; dup {
				return nil, fmt.Errorf("server: tenant %q reuses another tenant's token", t.Name)
			}
			r.byToken[t.Token] = st
		}
	}
	return r, nil
}

// LoadRegistry reads a tenant registry: a JSON file
// ({"tenants":[{"name":...,"token":...,...}]}, path may be empty) plus
// env-style "name=token" pairs (comma-separated) that add tenants or
// override file tokens — the deployment pattern where quotas live in a
// checked-in file and credentials in the environment. Both empty
// returns (nil, nil): open mode.
func LoadRegistry(path, env string) (*Registry, error) {
	var tenants []Tenant
	if path != "" {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("server: reading tenant registry: %w", err)
		}
		var f registryFile
		dec := json.NewDecoder(strings.NewReader(string(blob)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("server: tenant registry %s: %w", path, err)
		}
		tenants = f.Tenants
	}
	for _, pair := range strings.Split(env, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, token, ok := strings.Cut(pair, "=")
		if !ok || name == "" || token == "" {
			return nil, fmt.Errorf("server: bad tenant env entry %q, want name=token", pair)
		}
		found := false
		for i := range tenants {
			if tenants[i].Name == name {
				tenants[i].Token = token
				found = true
				break
			}
		}
		if !found {
			tenants = append(tenants, Tenant{Name: name, Token: token})
		}
	}
	if len(tenants) == 0 {
		return nil, nil
	}
	return NewRegistry(tenants)
}

// Authenticate resolves an Authorization header to a tenant.
// ErrUnauthenticated covers a missing, malformed, or unknown token;
// ErrForbidden a disabled tenant. Nil registry: open mode, anonymous
// tenant, no error.
func (r *Registry) Authenticate(authorization string) (Tenant, error) {
	if r == nil {
		return Tenant{}, nil
	}
	token, ok := strings.CutPrefix(authorization, "Bearer ")
	if !ok || token == "" {
		return Tenant{}, ErrUnauthenticated
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.byToken[token]
	if !ok {
		return Tenant{}, ErrUnauthenticated
	}
	if st.Disabled {
		return Tenant{}, fmt.Errorf("tenant %s is disabled: %w", st.Name, ErrForbidden)
	}
	return st.Tenant, nil
}

// Lookup returns the tenant named name. Unknown names (and any name on
// a nil registry) return a zero-quota default so a Gateway's
// attribution to an unregistered tenant never fails, only defaults to
// unlimited.
func (r *Registry) Lookup(name string) Tenant {
	if r == nil {
		return Tenant{Name: name}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.byName[name]; ok {
		return st.Tenant
	}
	return Tenant{Name: name}
}

// AllowSubmit spends one submission token from name's bucket. It
// returns ok=true when the submission may proceed; otherwise the
// duration after which one token will be available. The bucket level
// never goes negative and never exceeds the burst capacity. Anonymous
// tenants, unknown names, rate-less tenants, and nil registries are
// always allowed.
func (r *Registry) AllowSubmit(name string) (ok bool, retryAfter time.Duration) {
	if r == nil {
		return true, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, found := r.byName[name]
	if !found || st.RatePerSec <= 0 {
		return true, 0
	}
	now := time.Now()
	if r.now != nil {
		now = r.now()
	}
	if !st.refilled.IsZero() {
		st.tokens += now.Sub(st.refilled).Seconds() * st.RatePerSec
		if max := st.burst(); st.tokens > max {
			st.tokens = max
		}
	}
	st.refilled = now
	if st.tokens >= 1 {
		st.tokens--
		return true, 0
	}
	st.rateLimited++
	need := (1 - st.tokens) / st.RatePerSec
	return false, time.Duration(need * float64(time.Second))
}

// TenantNames returns every registered tenant name, sorted.
func (r *Registry) TenantNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// bucketState reports name's live token-bucket level and how many
// submissions the bucket has rejected, for /metrics.
func (r *Registry) bucketState(name string) (tokens float64, limited uint64, limitedSet bool) {
	if r == nil {
		return 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.byName[name]
	if !ok {
		return 0, 0, false
	}
	if st.RatePerSec <= 0 {
		return 0, st.rateLimited, true
	}
	tokens = st.tokens
	if !st.refilled.IsZero() {
		now := time.Now()
		if r.now != nil {
			now = r.now()
		}
		tokens += now.Sub(st.refilled).Seconds() * st.RatePerSec
		if max := st.burst(); tokens > max {
			tokens = max
		}
	}
	return tokens, st.rateLimited, true
}
