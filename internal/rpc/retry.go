package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/trace"
)

// ErrRetryBudgetExhausted wraps the last transport error when the retry
// budget denied further attempts.
var ErrRetryBudgetExhausted = errors.New("rpc: retry budget exhausted")

// ErrDeadlineExceeded wraps the last transport error when the per-call
// deadline expired before a retry could be issued.
var ErrDeadlineExceeded = errors.New("rpc: call deadline exceeded")

// RetryPolicy configures a RetryConn. The zero value gets sensible
// defaults from applyDefaults: 3 attempts, 100µs base backoff doubling to
// a 10ms cap, a 10% retry budget, and no per-call deadline.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, including the
	// first. Default 3.
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay before the first retry; each
	// further retry doubles it. Default 100µs.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 10ms.
	MaxBackoff time.Duration
	// Deadline bounds one Call's total wall time across attempts; once
	// exceeded no further retries are issued. 0 disables the deadline
	// (the deterministic experiment configuration).
	Deadline time.Duration
	// BudgetRatio is the classic retry-budget scheme (gRPC, Finagle):
	// each call earns BudgetRatio retry tokens, each retry spends one,
	// so retries can amplify offered load by at most 1+BudgetRatio
	// during a full outage. Default 0.1.
	BudgetRatio float64
	// BudgetBurst caps the token bucket. Default 10.
	BudgetBurst float64
	// RetryWork is metered CPU charged per retry attempt (re-marshal,
	// re-send bookkeeping, timer churn). Default 1024.
	RetryWork int
	// Sleep, when non-nil, is called with each backoff delay. Nil —
	// the default — skips real sleeping: experiment runs stay fast and
	// deterministic, while the delay sequence itself is still computed
	// (and observable in RetryStats.BackoffTotal).
	Sleep func(time.Duration)
	// Retryable classifies errors. Nil means DefaultRetryable.
	Retryable func(error) bool
	// RetryCounter, when non-nil, is bumped once per retry attempt so
	// retries show up in the meter's counter report.
	RetryCounter *meter.Counter
}

func (p *RetryPolicy) applyDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 10 * time.Millisecond
	}
	if p.BudgetRatio == 0 {
		p.BudgetRatio = 0.1
	}
	if p.BudgetBurst == 0 {
		p.BudgetBurst = 10
	}
	if p.RetryWork == 0 {
		p.RetryWork = 1024
	}
	if p.Retryable == nil {
		p.Retryable = DefaultRetryable
	}
}

// DefaultRetryable retries transport-level failures and refuses to retry
// application-level outcomes: a *RemoteError is the server speaking (the
// call was delivered), and ErrNoSuchMethod will not improve with retries.
func DefaultRetryable(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrNoSuchMethod)
}

// RetryStats counts a RetryConn's behaviour.
type RetryStats struct {
	Calls            int64         // Call invocations
	Attempts         int64         // underlying Call attempts
	Retries          int64         // attempts beyond the first
	BudgetDenied     int64         // retries refused by the budget
	DeadlineExceeded int64         // retries refused by the deadline
	Failures         int64         // calls that returned an error
	BackoffTotal     time.Duration // sum of computed backoff delays
}

// RetryConn wraps a Conn with budgeted, jittered, exponential-backoff
// retries — the client-side robustness layer production cache and
// database drivers carry, whose CPU the paper's availability discussion
// counts as part of the cache tier's true cost. It is safe for
// concurrent use; the jitter sequence is deterministic under a fixed
// seed and call order.
type RetryConn struct {
	next   Conn
	policy RetryPolicy
	comp   *meter.Component // retry-overhead attribution; may be nil
	burner *meter.Burner
	attr   *meter.AttrCtx // per-worker attribution context; may be nil

	mu     sync.Mutex
	rng    uint64
	budget float64
	stats  RetryStats
}

// NewRetryConn wraps conn. comp (optional) is charged RetryWork per retry
// under the usual burner scheme; seed drives the jitter sequence.
func NewRetryConn(conn Conn, policy RetryPolicy, seed int64, comp *meter.Component, burner *meter.Burner) *RetryConn {
	policy.applyDefaults()
	if comp != nil && burner == nil {
		burner = meter.NewBurner()
	}
	// The token bucket starts full (as gRPC's retry throttle does), so a
	// fresh connection can absorb an initial fault burst up to BudgetBurst
	// before the earn rate takes over.
	return &RetryConn{
		next: conn, policy: policy, comp: comp, burner: burner,
		budget: policy.BudgetBurst,
		rng:    uint64(seed)*0x9e3779b97f4a7c15 + 1,
	}
}

// SetAttrCtx binds a per-worker attribution context; the retry burn time
// charged to comp is also recorded there so a concurrent caller's
// attribution window subtracts it. Call before the conn is used.
func (r *RetryConn) SetAttrCtx(ctx *meter.AttrCtx) { r.attr = ctx }

// nextJitter draws the next deterministic jitter fraction in [0.5, 1).
func (r *RetryConn) nextJitter() float64 {
	r.rng += 0x9e3779b97f4a7c15
	x := r.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return 0.5 + float64(x>>11)/float64(1<<54)
}

// Call implements Conn: the underlying call is attempted up to
// MaxAttempts times, spending retry-budget tokens and honouring the
// per-call deadline between attempts.
func (r *RetryConn) Call(method string, req []byte) ([]byte, error) {
	return r.CallCtx(trace.SpanContext{}, method, req)
}

// CallCtx implements TraceConn: every attempt propagates the caller's
// span context, so retried hops appear as repeated rpc spans under the
// same parent.
func (r *RetryConn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	p := &r.policy
	var start time.Time
	if p.Deadline > 0 {
		start = time.Now()
	}

	r.mu.Lock()
	r.stats.Calls++
	r.budget += p.BudgetRatio
	if r.budget > p.BudgetBurst {
		r.budget = p.BudgetBurst
	}
	r.mu.Unlock()

	var lastErr error
	for attempt := 1; ; attempt++ {
		r.mu.Lock()
		r.stats.Attempts++
		r.mu.Unlock()

		resp, err := CallTraced(r.next, sc, method, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !p.Retryable(err) || attempt >= p.MaxAttempts {
			break
		}
		if p.Deadline > 0 && time.Since(start) >= p.Deadline {
			r.mu.Lock()
			r.stats.DeadlineExceeded++
			r.stats.Failures++
			r.mu.Unlock()
			return nil, fmt.Errorf("%w after %d attempts: %w", ErrDeadlineExceeded, attempt, lastErr)
		}

		// Spend a budget token and draw the jittered backoff.
		r.mu.Lock()
		if r.budget < 1 {
			r.stats.BudgetDenied++
			r.stats.Failures++
			r.mu.Unlock()
			return nil, fmt.Errorf("%w after %d attempts: %w", ErrRetryBudgetExhausted, attempt, lastErr)
		}
		r.budget--
		backoff := p.BaseBackoff << (attempt - 1)
		if backoff > p.MaxBackoff || backoff <= 0 {
			backoff = p.MaxBackoff
		}
		backoff = time.Duration(float64(backoff) * r.nextJitter())
		r.stats.Retries++
		r.stats.BackoffTotal += backoff
		r.mu.Unlock()

		if p.RetryCounter != nil {
			p.RetryCounter.Inc()
		}
		if p.Sleep != nil {
			p.Sleep(backoff)
		}
		if r.comp != nil && p.RetryWork > 0 {
			sw := r.comp.Start()
			r.burner.Burn(p.RetryWork)
			r.attr.AddInner(sw.Stop())
		}
	}

	r.mu.Lock()
	r.stats.Failures++
	r.mu.Unlock()
	return nil, lastErr
}

// Close implements Conn.
func (r *RetryConn) Close() error { return r.next.Close() }

// Down implements Downer when the wrapped conn does, so pool failover
// sees through the retry layer.
func (r *RetryConn) Down() bool {
	if d, ok := r.next.(Downer); ok {
		return d.Down()
	}
	return false
}

// Stats returns a snapshot of the retry counters.
func (r *RetryConn) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
