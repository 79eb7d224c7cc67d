// Package fault is the deterministic fault-injection layer of the cost
// laboratory. The paper's cost argument (§5) treats the cache tier as
// *optional* on the request path: a service must keep serving through
// cache-node loss by falling through to storage, and the price of that
// resilience — retries, timeouts, degraded hit ratios, over-provisioning —
// is part of the bill. This package makes those faults injectable and
// *metered*, so the stalls and failures a chaos schedule provokes show up
// in the cost report like any other CPU.
//
// An Injector owns a set of named fault targets ("nodes"). Each node has a
// composable Rule (error rate, injected stall work, slow-start after
// recovery) plus two switches: Kill (node refuses every call) and
// Blackhole (calls disappear and the caller pays a modeled timeout).
// Conns wrapped with Injector.Wrap consult their node before every call;
// non-RPC layers (the linked cache, the raft group) consult the same
// decisions through Decide and Down.
//
// Determinism: every decision is a pure function of (seed, node name,
// decision-stream identity, per-stream call sequence number). The default
// stream reproduces the classic single-threaded schedule exactly. A
// concurrent driver gives each worker its own stream (Wrap with
// WrapWorker, or DecideCtx with a worker index): each stream has a private
// atomic sequence counter and a worker-specific salt, so a fixed seed
// reproduces the identical per-worker fault schedule regardless of how the
// scheduler interleaves workers. Kill/blackhole/slow-start switches remain
// node-global, as they model node state, not caller state.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/rpc"
	"cachecost/internal/trace"
)

// Injected fault errors. They model transport-level failures, so retry
// layers treat them as retryable; application-level errors are never
// injected.
var (
	// ErrInjected is a transient per-call failure (connection reset,
	// overload shed) injected by a node's ErrorRate rule.
	ErrInjected = errors.New("fault: injected transient error")
	// ErrNodeDown is returned for every call to a killed node.
	ErrNodeDown = errors.New("fault: node is down")
	// ErrBlackhole models a request that vanished into a network
	// partition: the caller burns a timeout's worth of waiting-side work
	// and sees this error.
	ErrBlackhole = errors.New("fault: request blackholed (timeout)")
)

// Rule is the steady-state fault behaviour of one node. The zero Rule
// injects nothing.
type Rule struct {
	// ErrorRate is the probability in [0,1] that a call fails with
	// ErrInjected after any stall work has been charged.
	ErrorRate float64
	// StallWork is metered CPU work (Burner units) injected per stalled
	// call — added latency standing in for queueing, GC pauses or a slow
	// replica. Charged to the injector's component so stalls appear in
	// the cost report.
	StallWork int
	// StallRate is the probability a call pays StallWork. Zero means 1
	// (every call stalls) when StallWork or StallSleep is set.
	StallRate float64
	// StallSleep is wall-clock occupancy injected per stalled call, on
	// top of any StallWork: the caller sleeps this long, modeling a slow
	// disk or network path whose latency is real time, not CPU. Unlike
	// StallWork it charges nothing to the meter — it is pure latency, the
	// quantity the flight recorder's stage attribution observes.
	StallSleep time.Duration
	// SlowStartCalls is how many calls after Revive pay SlowStartWork
	// each — a cold cache, connection re-establishment, page-in.
	SlowStartCalls int
	// SlowStartWork is the extra work per slow-start call. Zero means
	// 4*StallWork, or 8192 if StallWork is also zero.
	SlowStartWork int
}

func (r Rule) stallRate() float64 {
	if r.StallWork <= 0 && r.StallSleep <= 0 {
		return 0
	}
	if r.StallRate == 0 {
		return 1
	}
	return r.StallRate
}

func (r Rule) slowStartWork() int {
	if r.SlowStartWork > 0 {
		return r.SlowStartWork
	}
	if r.StallWork > 0 {
		return 4 * r.StallWork
	}
	return 8192
}

// NodeStats counts what the injector did to one node.
type NodeStats struct {
	Calls          int64 // decisions taken
	InjectedErrors int64 // ErrInjected returned
	DownRejects    int64 // ErrNodeDown returned
	Blackholed     int64 // ErrBlackhole returned
	Stalls         int64 // calls that paid StallWork
	SlowStarts     int64 // calls that paid slow-start work
	WorkInjected   int64 // total Burner units charged
}

func (s *NodeStats) add(o NodeStats) {
	s.Calls += o.Calls
	s.InjectedErrors += o.InjectedErrors
	s.DownRejects += o.DownRejects
	s.Blackholed += o.Blackholed
	s.Stalls += o.Stalls
	s.SlowStarts += o.SlowStarts
	s.WorkInjected += o.WorkInjected
}

// statsCell is the lock-free accumulator behind NodeStats.
type statsCell struct {
	calls          atomic.Int64
	injectedErrors atomic.Int64
	downRejects    atomic.Int64
	blackholed     atomic.Int64
	stalls         atomic.Int64
	slowStarts     atomic.Int64
	workInjected   atomic.Int64
}

func (s *statsCell) snapshot() NodeStats {
	return NodeStats{
		Calls:          s.calls.Load(),
		InjectedErrors: s.injectedErrors.Load(),
		DownRejects:    s.downRejects.Load(),
		Blackholed:     s.blackholed.Load(),
		Stalls:         s.stalls.Load(),
		SlowStarts:     s.slowStarts.Load(),
		WorkInjected:   s.workInjected.Load(),
	}
}

// stream is one deterministic decision stream against a node: a private
// sequence counter plus a salt folded into every draw. The default stream
// has salt 0, making its draws byte-identical to the historical
// single-threaded injector.
type stream struct {
	salt  uint64
	seq   atomic.Uint64
	stats statsCell
}

// nodeState holds one fault target. The switches (rule, killed,
// blackholed, slow-start budget) are node-global and atomic; decision
// sequencing and stats live in per-stream state so concurrent workers
// never contend.
type nodeState struct {
	nameHash   uint64
	rule       atomic.Pointer[Rule]
	killed     atomic.Bool
	blackholed atomic.Bool
	slowLeft   atomic.Int64

	def stream // the default (worker-less) decision stream

	wmu     sync.RWMutex
	workers map[int]*stream
}

func (n *nodeState) stream(worker int) *stream {
	if worker < 0 {
		return &n.def
	}
	n.wmu.RLock()
	st, ok := n.workers[worker]
	n.wmu.RUnlock()
	if ok {
		return st
	}
	n.wmu.Lock()
	defer n.wmu.Unlock()
	if st, ok = n.workers[worker]; ok {
		return st
	}
	st = &stream{salt: workerSalt(worker)}
	n.workers[worker] = st
	return st
}

// workerSalt derives the per-worker draw salt. Worker indices are small
// integers, so a full-avalanche mix keeps neighbouring workers' fault
// schedules statistically independent.
func workerSalt(worker int) uint64 {
	return splitmix64(uint64(worker) + 0x8000000000000000)
}

// Options configures an Injector.
type Options struct {
	// Meter receives the injected stall work under Component. Nil
	// disables metering (faults still fire, but stalls burn nothing).
	Meter *meter.Meter
	// Component is the meter component name. Default "fault".
	Component string
	// TimeoutWork is the waiting-side work charged for a blackholed
	// call (the caller spinning on a timeout). Default 16384.
	TimeoutWork int
}

// Injector injects faults into named nodes. All methods are safe for
// concurrent use. Decisions on distinct streams are lock-free after the
// first call; the injector-level lock is only taken to create nodes.
type Injector struct {
	seed        uint64
	comp        *meter.Component
	burner      *meter.Burner
	timeoutWork int

	mu    sync.RWMutex
	nodes map[string]*nodeState
}

// New returns an Injector whose decisions derive from seed.
func New(seed int64, opts Options) *Injector {
	in := &Injector{
		seed:        uint64(seed),
		timeoutWork: opts.TimeoutWork,
		nodes:       make(map[string]*nodeState),
	}
	if in.timeoutWork == 0 {
		in.timeoutWork = 16384
	}
	if opts.Meter != nil {
		name := opts.Component
		if name == "" {
			name = "fault"
		}
		in.comp = opts.Meter.Component(name)
		in.burner = meter.NewBurner()
	}
	return in
}

func (in *Injector) node(name string) *nodeState {
	in.mu.RLock()
	n, ok := in.nodes[name]
	in.mu.RUnlock()
	if ok {
		return n
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if n, ok = in.nodes[name]; ok {
		return n
	}
	n = &nodeState{nameHash: hashName(name), workers: make(map[int]*stream)}
	n.rule.Store(&Rule{})
	in.nodes[name] = n
	return n
}

// SetRule installs the steady-state rule for node, replacing any earlier
// rule. The node's kill/blackhole switches are unaffected.
func (in *Injector) SetRule(node string, r Rule) {
	in.node(node).rule.Store(&r)
}

// Kill flips the node's kill switch: every call fails with ErrNodeDown
// until Revive.
func (in *Injector) Kill(node string) {
	in.node(node).killed.Store(true)
}

// Revive clears the kill switch and arms the node's slow-start window.
func (in *Injector) Revive(node string) {
	n := in.node(node)
	if n.killed.CompareAndSwap(true, false) {
		n.slowLeft.Store(int64(n.rule.Load().SlowStartCalls))
	}
}

// Blackhole sets or clears the node's partition switch: while set, calls
// vanish (the caller pays timeout work and sees ErrBlackhole).
func (in *Injector) Blackhole(node string, on bool) {
	in.node(node).blackholed.Store(on)
}

// Down reports whether node is currently killed or blackholed. Pools and
// replication layers use it to route around unreachable nodes.
func (in *Injector) Down(node string) bool {
	in.mu.RLock()
	n, ok := in.nodes[node]
	in.mu.RUnlock()
	return ok && (n.killed.Load() || n.blackholed.Load())
}

// splitmix64 is the decision hash: a full-avalanche mix of the seed, the
// node identity and the call sequence number.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// unit maps a decision draw to [0,1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// Decide takes the next fault decision on node's default stream and
// returns the injected error, or nil to let the call proceed. Stall and
// slow-start work is burned and metered before the verdict. Wrapped conns
// call this on every Call; non-RPC layers (linked caches, raft groups)
// call it directly.
func (in *Injector) Decide(node string) error {
	return in.DecideCtx(node, -1, nil)
}

// DecideCtx is Decide on an explicit decision stream: worker >= 0 selects
// that worker's private stream (deterministic under concurrency), worker
// < 0 the default stream. A non-nil ctx receives the burn time charged to
// the fault component, so a caller's attribution window can subtract it.
func (in *Injector) DecideCtx(node string, worker int, ctx *meter.AttrCtx) error {
	return in.DecideTrace(node, worker, ctx, trace.SpanContext{})
}

// DecideTrace is DecideCtx carrying the caller's span context: decisions
// that inject anything — a kill reject, a blackhole timeout, stall or
// slow-start work, a transient error — are recorded as "fault" spans on
// the request trace and bump the trace's fault counter. Clean decisions
// leave no span. The decision-draw sequence is byte-identical to
// DecideCtx's, so fixed-seed fault schedules are unchanged by tracing.
func (in *Injector) DecideTrace(node string, worker int, ctx *meter.AttrCtx, sc trace.SpanContext) error {
	n := in.node(node)
	st := n.stream(worker)
	seq := st.seq.Add(1)
	st.stats.calls.Add(1)
	if n.killed.Load() {
		st.stats.downRejects.Add(1)
		in.recordFault(sc, node, "down", 0, 0, nil)
		return ErrNodeDown
	}
	if n.blackholed.Load() {
		st.stats.blackholed.Add(1)
		st.stats.workInjected.Add(int64(in.timeoutWork))
		in.recordFault(sc, node, "blackhole", in.timeoutWork, 0, ctx)
		return ErrBlackhole
	}
	rule := *n.rule.Load()
	draw := splitmix64(in.seed ^ n.nameHash ^ st.salt ^ seq)
	var work int
	slow := false
	for {
		left := n.slowLeft.Load()
		if left <= 0 {
			break
		}
		if n.slowLeft.CompareAndSwap(left, left-1) {
			work += rule.slowStartWork()
			st.stats.slowStarts.Add(1)
			slow = true
			break
		}
	}
	// Independent sub-draws for the stall and error verdicts, both
	// derived from the one deterministic draw.
	stallDraw := unit(draw)
	errDraw := unit(splitmix64(draw))
	stalled := false
	var sleep time.Duration
	if rule.stallRate() > 0 && stallDraw < rule.stallRate() {
		work += rule.StallWork
		sleep = rule.StallSleep
		st.stats.stalls.Add(1)
		stalled = true
	}
	var err error
	if rule.ErrorRate > 0 && errDraw < rule.ErrorRate {
		st.stats.injectedErrors.Add(1)
		err = ErrInjected
	}
	st.stats.workInjected.Add(int64(work))
	if err == nil && work == 0 && sleep == 0 {
		return nil // clean decision: no span, no burn
	}
	outcome := "stall"
	switch {
	case err != nil:
		outcome = "error"
	case slow && !stalled:
		outcome = "slow-start"
	}
	in.recordFault(sc, node, outcome, work, sleep, ctx)
	return err
}

// recordFault burns the injected work, sleeps any wall-clock stall and,
// when the request is traced, wraps both in a "fault" span annotated with
// the outcome, bumping the path-level fault counter.
func (in *Injector) recordFault(sc trace.SpanContext, node, outcome string, work int, sleep time.Duration, ctx *meter.AttrCtx) {
	if !sc.Traced() {
		in.burn(work, ctx)
		if sleep > 0 {
			time.Sleep(sleep)
		}
		return
	}
	sc.Tracer().CountFault()
	act, _ := trace.Start(sc, "fault", node)
	act.Annotate("fault.outcome", outcome)
	if work > 0 {
		act.AnnotateInt("fault.work", int64(work))
	}
	if sleep > 0 {
		act.AnnotateInt("fault.sleep_ns", int64(sleep))
	}
	in.burn(work, ctx)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	act.End()
}

// burn charges injected work to the fault component, crediting a non-nil
// attribution context with the attributed duration.
func (in *Injector) burn(work int, ctx *meter.AttrCtx) {
	if work <= 0 || in.comp == nil {
		return
	}
	sw := in.comp.Start()
	in.burner.Burn(work)
	ctx.AddInner(sw.Stop())
}

// nodeStats sums a node's counters across the default stream and every
// worker stream.
func (n *nodeState) nodeStats() NodeStats {
	total := n.def.stats.snapshot()
	n.wmu.RLock()
	for _, st := range n.workers {
		s := st.stats.snapshot()
		total.add(s)
	}
	n.wmu.RUnlock()
	return total
}

// NodeStats returns the counters for one node, summed over all decision
// streams.
func (in *Injector) NodeStats(node string) NodeStats {
	in.mu.RLock()
	n, ok := in.nodes[node]
	in.mu.RUnlock()
	if !ok {
		return NodeStats{}
	}
	return n.nodeStats()
}

// WorkerStats returns the counters for one worker's decision stream
// against node. worker < 0 selects the default stream.
func (in *Injector) WorkerStats(node string, worker int) NodeStats {
	in.mu.RLock()
	n, ok := in.nodes[node]
	in.mu.RUnlock()
	if !ok {
		return NodeStats{}
	}
	if worker < 0 {
		return n.def.stats.snapshot()
	}
	n.wmu.RLock()
	st, ok := n.workers[worker]
	n.wmu.RUnlock()
	if !ok {
		return NodeStats{}
	}
	return st.stats.snapshot()
}

// Stats returns counters summed over every node.
func (in *Injector) Stats() NodeStats {
	in.mu.RLock()
	nodes := make([]*nodeState, 0, len(in.nodes))
	for _, n := range in.nodes {
		nodes = append(nodes, n)
	}
	in.mu.RUnlock()
	var total NodeStats
	for _, n := range nodes {
		s := n.nodeStats()
		total.add(s)
	}
	return total
}

// Trace renders the per-node decision counts, sorted by node name — a
// compact fault-schedule fingerprint for determinism checks.
func (in *Injector) Trace() string {
	in.mu.RLock()
	names := make([]string, 0, len(in.nodes))
	for name := range in.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	nodes := make([]*nodeState, len(names))
	for i, name := range names {
		nodes[i] = in.nodes[name]
	}
	in.mu.RUnlock()
	out := ""
	for i, name := range names {
		s := nodes[i].nodeStats()
		out += fmt.Sprintf("%s{calls=%d errs=%d down=%d bh=%d stalls=%d slow=%d work=%d} ",
			name, s.Calls, s.InjectedErrors, s.DownRejects, s.Blackholed, s.Stalls, s.SlowStarts, s.WorkInjected)
	}
	return out
}

// Conn is an rpc.Conn filtered through an Injector node.
type Conn struct {
	node   string
	worker int
	in     *Injector
	next   rpc.Conn
	attr   *meter.AttrCtx
}

// Wrap returns conn filtered through the named node's default decision
// stream.
func (in *Injector) Wrap(node string, conn rpc.Conn) *Conn {
	return &Conn{node: node, worker: -1, in: in, next: conn}
}

// WrapWorker returns conn filtered through the named node using worker's
// private decision stream, for concurrent drivers that need per-worker
// deterministic fault schedules.
func (in *Injector) WrapWorker(node string, worker int, conn rpc.Conn) *Conn {
	return &Conn{node: node, worker: worker, in: in, next: conn}
}

// SetAttrCtx binds a per-worker attribution context: injected burn time is
// credited there. Call before the conn is used.
func (c *Conn) SetAttrCtx(ctx *meter.AttrCtx) { c.attr = ctx }

// Call implements rpc.Conn: the node decides first; only clean calls
// reach the underlying connection.
func (c *Conn) Call(method string, req []byte) ([]byte, error) {
	if err := c.in.DecideCtx(c.node, c.worker, c.attr); err != nil {
		return nil, err
	}
	return c.next.Call(method, req)
}

// CallCtx implements rpc.TraceConn: injected faults appear as spans on
// the request trace, and clean calls propagate the span context onward.
func (c *Conn) CallCtx(sc trace.SpanContext, method string, req []byte) ([]byte, error) {
	if err := c.in.DecideTrace(c.node, c.worker, c.attr, sc); err != nil {
		return nil, err
	}
	return rpc.CallTraced(c.next, sc, method, req)
}

// Close implements rpc.Conn.
func (c *Conn) Close() error { return c.next.Close() }

// Down implements rpc.Downer: pools skip this connection while its node
// is killed or blackholed.
func (c *Conn) Down() bool { return c.in.Down(c.node) }

// Node returns the fault-target name this conn is bound to.
func (c *Conn) Node() string { return c.node }
