package jobqueue

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"interferometry/internal/obs"
)

// ErrOpen rejects a call while the breaker refuses traffic.
var ErrOpen = errors.New("jobqueue: circuit open")

// State is a breaker state.
type State uint8

// Breaker states, the classic three.
const (
	// Closed passes every call, counting failures.
	Closed State = iota
	// Open rejects every call until OpenFor has elapsed.
	Open
	// HalfOpen admits a bounded number of probe calls: enough successes
	// close the breaker, one failure reopens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// BreakerConfig parameterizes a breaker.
type BreakerConfig struct {
	// TripAfter is the number of consecutive failures that opens the
	// breaker. Zero means 5.
	TripAfter int
	// OpenFor is how long the breaker rejects before admitting probes.
	// Zero means 5s.
	OpenFor time.Duration
	// Probes is how many half-open calls may be in flight at once, and
	// how many must succeed (without any failing) to close. Zero means 1.
	Probes int
	// SlowThreshold, when positive, counts a call at least this slow as
	// a failure even if it returned nil — the latency-spike trip wire.
	SlowThreshold time.Duration
	// Now is the clock. Nil means time.Now.
	Now func() time.Time
	// OnTransition, when non-nil, observes every state change under the
	// breaker's lock; keep it fast (campaignd bumps counters).
	OnTransition func(from, to State)
}

func (c BreakerConfig) tripAfter() int {
	if c.TripAfter <= 0 {
		return 5
	}
	return c.TripAfter
}

func (c BreakerConfig) openFor() time.Duration {
	if c.OpenFor <= 0 {
		return 5 * time.Second
	}
	return c.OpenFor
}

func (c BreakerConfig) probes() int {
	if c.Probes <= 0 {
		return 1
	}
	return c.Probes
}

// Breaker is a closed/open/half-open circuit breaker. Callers bracket
// the protected call with Allow and Record:
//
//	if err := b.Allow(); err != nil { ... back off ... }
//	start := now()
//	res, err := call()
//	b.Record(now().Sub(start), err)
//
// A call given up before it says anything about the seam is bracketed
// with Allow and Abandon instead. All methods are safe for concurrent
// use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	inFlight int       // admitted probes not yet recorded (half-open)
	probeOKs int       // successful probes this half-open episode
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg}
}

func (b *Breaker) now() time.Time {
	if b.cfg.Now != nil {
		return b.cfg.Now()
	}
	return time.Now()
}

func (b *Breaker) transitionLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// State returns the breaker's current state (advancing Open to HalfOpen
// if its window has elapsed).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.state
}

// advanceLocked moves Open to HalfOpen once OpenFor has elapsed.
func (b *Breaker) advanceLocked() {
	if b.state == Open && !b.now().Before(b.openedAt.Add(b.cfg.openFor())) {
		b.transitionLocked(HalfOpen)
		b.inFlight = 0
		b.probeOKs = 0
	}
}

// Allow reports whether a call may proceed. ErrOpen means the caller
// should not attempt the call now; retrying after RetryIn is reasonable.
// Every nil return must be matched by exactly one Record or Abandon.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	switch b.state {
	case Closed:
		return nil
	case HalfOpen:
		if b.inFlight >= b.cfg.probes() {
			return ErrOpen
		}
		b.inFlight++
		return nil
	default:
		return ErrOpen
	}
}

// RetryIn suggests how long until the breaker may admit traffic again:
// the remainder of the open window, or zero when calls are admissible.
func (b *Breaker) RetryIn() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	if b.state != Open {
		return 0
	}
	d := b.openedAt.Add(b.cfg.openFor()).Sub(b.now())
	if d < 0 {
		d = 0
	}
	return d
}

// Record reports the outcome of an allowed call. A call that errored —
// or outlived SlowThreshold — counts as a failure.
func (b *Breaker) Record(d time.Duration, err error) {
	failed := err != nil || (b.cfg.SlowThreshold > 0 && d >= b.cfg.SlowThreshold)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if !failed {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.tripAfter() {
			b.trip()
		}
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		if failed {
			// One failed probe reopens: the seam is still sick.
			b.trip()
			return
		}
		b.probeOKs++
		if b.probeOKs >= b.cfg.probes() {
			b.transitionLocked(Closed)
			b.failures = 0
		}
	case Open:
		// A straggler from before the trip; its outcome is stale.
	}
}

// Abandon gives back an admission Allow granted for a call that was
// given up without a verdict on the seam: the call never reached it, or
// its outcome says nothing about its health. A half-open breaker gets
// its probe slot back; no state changes and no failure is counted.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.inFlight > 0 {
		b.inFlight--
	}
}

// trip opens the breaker and stamps the open window. Callers hold b.mu.
func (b *Breaker) trip() {
	b.transitionLocked(Open)
	b.openedAt = b.now()
	b.failures = 0
	b.inFlight = 0
	b.probeOKs = 0
}

// BreakerMetrics counts a breaker's state transitions and mirrors its
// current state into a gauge (0 closed, 1 open, 2 half-open).
type BreakerMetrics struct {
	State    *obs.Gauge
	Opened   *obs.Counter
	HalfOpen *obs.Counter
	Closed   *obs.Counter
}

// ObserveBreaker resolves the standard transition instruments for the
// named seam under prefix and returns an OnTransition callback wired to
// them. Nil-safe: with a nil observer the callback still runs, updating
// nil instruments (no-ops).
func ObserveBreaker(o *obs.Observer, prefix, seam string) func(from, to State) {
	var m BreakerMetrics
	if o != nil {
		m = BreakerMetrics{
			State:    o.Gauge(fmt.Sprintf("%s_breaker_%s_state", prefix, seam), "breaker state for the "+seam+" seam (0 closed, 1 open, 2 half-open)"),
			Opened:   o.Counter(fmt.Sprintf("%s_breaker_%s_opened_total", prefix, seam), "transitions to open for the "+seam+" seam"),
			HalfOpen: o.Counter(fmt.Sprintf("%s_breaker_%s_half_open_total", prefix, seam), "transitions to half-open for the "+seam+" seam"),
			Closed:   o.Counter(fmt.Sprintf("%s_breaker_%s_closed_total", prefix, seam), "transitions back to closed for the "+seam+" seam"),
		}
	}
	return func(from, to State) {
		m.State.Set(float64(to))
		switch to {
		case Open:
			m.Opened.Inc()
		case HalfOpen:
			m.HalfOpen.Inc()
		case Closed:
			m.Closed.Inc()
		}
	}
}
