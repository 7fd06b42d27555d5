// Package server implements the dcsatd daemon: a multi-tenant DCSat
// service hosting one core.Monitor per registered tenant behind the
// versioned HTTP/JSON API defined in dcsatd/api.
//
// The serving path layers three protections in front of the engine:
//
//  1. Admission control — every check first passes through
//     obs.Accountant.Admit against the tenant's registered budget.
//     The accountant is the process-wide DefaultAccountant because
//     internal/core records each finished check's cost vector into
//     it; a private accountant would never be debited. THROTTLE maps
//     to 429, SHED to 503, both with Retry-After.
//  2. Backpressure — a server-wide inflight semaphore bounds
//     concurrent checks, and when the engine's pool-utilization
//     gauge reports saturation the server rejects immediately
//     instead of queueing (the queue would only add latency on top
//     of an already-saturated pool).
//  3. Drain — SIGTERM flips the draining flag and readiness; new
//     checks get 503 draining while in-flight ones run to
//     completion under Drain's WaitGroup.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockchaindb/dcsatd/api"
	"blockchaindb/internal/core"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/query"
)

// Config bounds the server. Zero values take the defaults noted on
// each field.
type Config struct {
	// MaxInflight caps concurrent checks across all tenants
	// (default 2×GOMAXPROCS).
	MaxInflight int
	// QueueWait is how long a check waits for an inflight slot
	// before being rejected with backpressure (default 100ms).
	QueueWait time.Duration
	// DefaultTimeout is the per-check deadline when the request
	// does not carry one (default 2s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for
	// (default 30s).
	MaxTimeout time.Duration
	// MaxTenants bounds the tenant table (default 64).
	MaxTenants int
	// SaturationPermille is the pool-utilization gauge level at or
	// above which new checks are rejected without queueing
	// (default 900).
	SaturationPermille int64
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.SaturationPermille <= 0 {
		c.SaturationPermille = 900
	}
	return c
}

// Serving-path instruments. Registered on the process-wide registry so
// they surface through the same /metrics and /debug/timeseries the
// engine's own instruments use.
var (
	mChecksServed = obs.Default.Counter(obs.MetricServedChecks, "checks served by dcsatd (any verdict, including undecided)")
	vRejected     = obs.Default.CounterVec(obs.MetricServedRejects, "requests rejected by dcsatd, by reason", "reason")
	mDeltaOps     = obs.Default.Counter(obs.MetricServedDeltaOps, "mempool delta operations applied by dcsatd")
	gTenants      = obs.Default.Gauge(obs.MetricServedTenants, "tenants currently registered")
	gInflight     = obs.Default.Gauge(obs.MetricServedInflight, "check requests currently in flight in dcsatd")
	hCheckNS      = obs.DefaultWindows.Histogram(obs.MetricServedCheckNS, "end-to-end check latency through the serving path, ns")
)

// tenant is one registered constraint-set: a Monitor plus the named
// queries and budget the tenant registered with.
type tenant struct {
	name    string
	mon     *core.Monitor
	workers int

	mu      sync.RWMutex // guards queries
	queries map[string]*query.Query

	budgetUnits int64
	budgetBurst int64
	checks      atomic.Int64
}

// Server hosts the tenant table and implements the v1 handlers.
type Server struct {
	cfg  Config
	acct *obs.Accountant

	mu      sync.RWMutex
	tenants map[string]*tenant

	draining atomic.Bool
	inflight chan struct{}
	// inflightN counts handlers between their entry increment and
	// exit decrement. Handlers increment BEFORE checking the draining
	// flag, so once BeginDrain has run, Drain's poll cannot miss a
	// request: anything it doesn't see has not incremented yet and
	// will observe the flag and reject. (A WaitGroup would be the
	// obvious tool, but Add racing a concurrent Wait at counter zero
	// is documented misuse; atomics plus a poll are unambiguous.)
	inflightN atomic.Int64

	// poolUtil re-fetches the engine's pool-utilization gauge; the
	// registry returns the existing instrument, so this observes the
	// same value internal/core maintains.
	poolUtil *obs.Gauge

	// beforeCheck, when non-nil, runs after a check is admitted and
	// holds an inflight slot but before the engine runs. Tests use it
	// to hold checks in flight across a drain.
	beforeCheck func()
}

// New builds a Server on the process-wide accountant and registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		acct:     obs.DefaultAccountant,
		tenants:  make(map[string]*tenant),
		inflight: make(chan struct{}, cfg.MaxInflight),
		poolUtil: obs.Default.Gauge(obs.MetricPoolUtilization, ""),
	}
}

// Mount registers the v1 API on mux. The patterns use Go 1.22 method
// and wildcard routing, so mux must be a stdlib *http.ServeMux.
func (s *Server) Mount(mux *http.ServeMux) {
	p := api.Prefix
	handle := func(pattern string, h http.HandlerFunc) { mux.HandleFunc(pattern, recovering(h)) }
	handle("POST "+p+"/tenants", s.handleRegister)
	handle("GET "+p+"/tenants", s.handleList)
	handle("GET "+p+"/tenants/{tenant}", s.handleStatus)
	handle("DELETE "+p+"/tenants/{tenant}", s.handleDeregister)
	handle("POST "+p+"/tenants/{tenant}/deltas", s.handleDeltas)
	handle("POST "+p+"/tenants/{tenant}/check", s.handleCheck)
}

// recovering wraps a v1 handler so that a panic in it, or in the
// engine it calls, answers with the api.CodeInternal envelope (500)
// and a journal event, instead of net/http dropping the connection.
// The handler's own deferred releases (in-flight counters, the
// inflight slot) run while the panic unwinds, before this recover.
// Handlers write their response last, so a panic normally lands before
// anything was written. http.ErrAbortHandler is net/http's deliberate
// abort and passes through.
func recovering(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			obs.DefaultJournal.Append(obs.EvServerPanic, 0, "",
				obs.F("method", r.Method),
				obs.F("path", r.URL.Path),
				obs.F("panic", fmt.Sprint(v)))
			fail(w, api.CodeInternal, "internal error", 0)
		}()
		h(w, r)
	}
}

// tenantByName returns the live tenant or nil.
func (s *Server) tenantByName(name string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// BeginDrain flips the server into draining mode: readiness goes
// false and every subsequent check is rejected with 503 draining.
// In-flight checks are unaffected; Drain waits for them.
func (s *Server) BeginDrain() {
	if s.draining.Swap(true) {
		return
	}
	obs.SetReady(false)
	obs.DefaultJournal.Append(obs.EvServerDrain, 0, "", obs.F("inflight", gInflight.Value()))
}

// Drain blocks until every in-flight request has finished or ctx
// expires. It returns ctx.Err on timeout, nil on a clean drain.
// Call BeginDrain first so new checks are rejected while Drain waits.
func (s *Server) Drain(ctx context.Context) error {
	for {
		if s.inflightN.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// TenantCount returns the number of registered tenants.
func (s *Server) TenantCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tenants)
}

// ChecksServed returns the total checks served since process start.
func ChecksServed() int64 { return mChecksServed.Value() }
