// Package engine provides the discrete-event simulation kernel: a clock and
// event queues with deterministic same-cycle ordering.
//
// The GPU memory-hierarchy model is expressed as events (request issue,
// bank response, DRAM completion) scheduled at future cycles. Determinism
// matters: two events at the same cycle fire in a canonical order, so a
// simulation configuration plus a seed fully determines every statistic.
//
// The kernel is Sharded: simulator state is partitioned into domains, each
// with a bound EventSink, and domains are grouped onto K shards that
// advance in lock-step barrier rounds. Each round fires every event below
// a per-shard bound derived from the transitive closure of declared
// per-edge minimum Send delays (DeclareEdge), so one round coalesces many
// cycles of work. Every Send travels a declared edge: an engine with no
// declarations has no cross-domain edges. K=1 is a plain serial pop loop
// with zero steady-state allocations; results are bit-identical at every K.
// Each shard's events live in a calendar queue (queue.go); the oracle
// tests in determinism_test.go pin its ordering against a container/heap
// reference queue.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the bank-sharded parallel event engine: a
// multi-domain discrete-event simulator whose results are bit-identical at
// any shard count.
//
// The model is conservative parallel discrete-event simulation with
// per-edge lookahead. All simulator state is partitioned into domains; an
// event is owned by exactly one domain and only that domain's sink
// observes it. Within a domain, events fire in a canonical total order —
// (cycle, key), where the key packs the event's class, origin domain, and
// a per-domain scheduling sequence — that is a function of the simulation
// alone, never of how domains are grouped onto shards. Sharding therefore
// only decides which OS thread fires an event, not when or in what order
// relative to the rest of its domain, which is what makes K-invariance
// hold by construction instead of by careful merging.
//
// Cross-domain communication must use Send on a declared (source,
// destination) edge with a delivery delay of at least the edge's declared
// minimum — the lookahead. Each parallel round lets every shard fire all
// events strictly below its bound: the earliest cycle at which any other
// shard's pending work could still deliver a message to it. Rounds then
// advance by the latency graph's real slack instead of one timestamp at a
// time, collapsing the barrier count by the average lookahead.

// EventSink receives a domain's events. Exactly one sink is bound per
// domain; OnEvent is called only from the shard worker that owns the
// domain (or the caller's goroutine in serial mode), so a sink may touch
// its domain's state without locking — and must touch no other domain's.
type EventSink interface {
	OnEvent(kind uint8, a, b uint64)
}

const (
	seqBits    = 48
	domainBits = 15
	// msgClass marks cross-domain messages in the canonical key. At equal
	// cycle a domain fires its local events before delivered messages;
	// messages order among themselves by (source domain, source sequence).
	msgClass = uint64(1) << 63
	noEvent  = ^uint64(0)
)

// RunStats is the deterministic scheduling ledger of one Run: a pure
// function of the simulation and the shard count, independent of host
// speed, GOMAXPROCS, or thread scheduling — so it can be asserted in tests
// and gated in benchmarks even on a single-core machine.
type RunStats struct {
	// Rounds counts barrier rounds (parallel) or is 0 for serial runs,
	// which have no barrier.
	Rounds uint64
	// Events counts fired events.
	Events uint64
	// Timestamps counts distinct event cycles fired, summed over shards in
	// parallel mode and globally in serial mode. A serial run's Timestamps
	// equals the rounds the pre-lookahead engine would have needed.
	Timestamps uint64
	// CrossShardMessages counts Sends that crossed a shard boundary.
	CrossShardMessages uint64
	// IngestsSkipped counts rounds whose mailbox phase was skipped because
	// no shard sent a cross-shard message since the previous ingest.
	IngestsSkipped uint64
}

// shardState is one shard's private event queue plus its outboxes. During
// a parallel round, shard w appends outgoing messages to out[dst] (only w
// writes its own rows) and, in the ingest phase, drains column w of every
// shard's outbox (only w reads/resets that column); the round barriers
// order the two phases, so no slice is ever touched concurrently.
//
// Layout audit: the queue, out headers and now are written every round by
// the owning worker only; cross-worker coordination words live in the
// padded pub/bound slots owned by the engine, not here. The trailing pad
// keeps two adjacent shardStates' hot words on distinct cache lines.
type shardState struct {
	q   calQueue
	out [][]sevent
	// now is the cycle the shard is processing; Domain.Now reads it, so it
	// is written only by the owning worker (or single-threaded code).
	now uint64
	// Owner-private round accounting, merged into Sharded.stats after the
	// run (worker-local, no sharing).
	events     uint64
	timestamps uint64
	crossSent  uint64
	_pad       [40]byte // keep hot per-shard words off shared cache lines
}

// Domain is one partition of simulator state: an event queue identity
// whose events all fire on one shard, in canonical order. Obtain domains
// from Sharded.Domain; the zero value is not usable.
type Domain struct {
	eng   *Sharded
	id    int32
	shard int32
	seq   uint64
	sink  EventSink
}

// Bind attaches the sink that receives this domain's events.
func (d *Domain) Bind(sink EventSink) { d.sink = sink }

// Now returns the cycle the domain's shard is processing (equal to the
// engine clock outside Run).
func (d *Domain) Now() uint64 { return d.eng.shards[d.shard].now }

// After schedules a local event on this domain, delay cycles from its
// current cycle. A delay of 0 fires later in the same cycle, after the
// domain's already-queued same-cycle local events. Call it during setup
// (between Runs) or from this domain's own sink; never from another
// domain's.
func (d *Domain) After(delay uint64, kind uint8, a, b uint64) {
	sh := &d.eng.shards[d.shard]
	d.seq++
	sh.q.push(sh.now+delay, uint64(d.id)<<seqBits|d.seq, a, b, d.id, kind)
}

// Send schedules an event on another domain, delay cycles from the sending
// domain's current cycle, on an edge declared with DeclareEdge. The delay
// must be at least the edge's declared minimum — the lookahead: it is what
// lets shards process a whole window of timestamps in one barrier round,
// knowing no message can still be in flight into that window. Delivery order at equal
// cycle is canonical — after the destination's local events, ordered by
// (sending domain, sending sequence) — so results do not depend on shard
// grouping.
func (d *Domain) Send(dst *Domain, delay uint64, kind uint8, a, b uint64) {
	e := d.eng
	var floor uint64
	if e.edgeMin != nil {
		floor = e.edgeMin[int(d.id)*len(e.domains)+int(dst.id)]
	}
	if floor == 0 {
		panic(fmt.Sprintf("engine: Send on undeclared edge %d->%d", d.id, dst.id))
	}
	if delay < floor {
		panic(fmt.Sprintf("engine: Send delay %d below declared minimum %d for edge %d->%d", delay, floor, d.id, dst.id))
	}
	sh := &e.shards[d.shard]
	d.seq++
	when, key := sh.now+delay, msgClass|uint64(d.id)<<seqBits|d.seq
	if ds := dst.shard; ds == d.shard {
		sh.q.push(when, key, a, b, dst.id, kind)
	} else {
		sh.out[ds] = append(sh.out[ds], sevent{when: when, key: key, a: a, b: b, dst: dst.id, kind: kind})
		sh.crossSent++
		e.pub[d.shard].sent.Store(1)
	}
}

// pubSlot is one shard's published coordination word set, padded to a full
// cache line: the owner worker writes min/sent between barriers, the
// combiner (last barrier arriver) reads them. Keeping each shard's slot on
// its own line means publishing never invalidates a peer's line.
type pubSlot struct {
	min  uint64
	sent atomic.Uint32
	_    [52]byte
}

// boundSlot is one shard's per-round fire bound, written by the combiner
// and read by the owner — padded for the same reason as pubSlot.
type boundSlot struct {
	v uint64
	_ [56]byte
}

// planHeader carries the combiner's global outputs for a round.
type planHeader struct {
	globalMin uint64
	ingest    uint32
	_         [52]byte
}

// Sharded is a discrete-event engine over a fixed set of domains, able to
// fire independent domains' events in parallel. Construct with NewSharded.
//
// With one shard (the default) Run is a plain serial pop loop with zero
// steady-state allocations — the fast path the sweep uses. With K shards,
// K workers advance in lock-step rounds under a combining barrier; each
// round every shard fires all events strictly below its lookahead bound.
// Every statistic, event order, and observer stream is bit-identical to
// the serial run at any K.
type Sharded struct {
	domains []Domain
	shards  []shardState
	now     uint64

	// edgeMin is the declared per-edge minimum Send delay, dense D×D
	// (src*D+dst), 0 = undeclared; nil until the first DeclareEdge.
	edgeMin []uint64
	// look[to*K+from] is the per-shard-pair lookahead: the minimum edgeMin
	// over all (src in from, dst in to) domain pairs; noEvent when no edge
	// connects the pair. Rebuilt by each parallel Run.
	look []uint64

	// pub/bounds/hdr are the padded coordination arrays for parallel runs;
	// pub is allocated by setShards because setup-time Sends set the sent
	// flag before any Run.
	pub    []pubSlot
	bounds []boundSlot
	hdr    planHeader

	stats RunStats

	// tickers are optional hooks fired once per boundary (multiples of
	// each slot's period) strictly between rounds: every domain is parked
	// when one runs, so it may read — and, alone among extension points,
	// mutate — simulator state. A ticker fires for each boundary B <= the
	// next event cycle, like a daemon event that never keeps Run alive: a
	// boundary with no remaining events after it never fires. A boundary
	// shared by several slots fires them in ascending slot order. gpu's
	// observability sampler rides in slot 0 and its fault-class strike
	// ticker in slot 1.
	tickers []ticker
}

// ticker is one registered boundary hook (see SetTicker).
type ticker struct {
	fn    func(boundary uint64)
	every uint64
	next  uint64
}

// NewSharded returns an engine over numDomains domains, initially with one
// shard (serial execution).
func NewSharded(numDomains int) *Sharded {
	if numDomains < 1 || numDomains >= 1<<domainBits {
		panic(fmt.Sprintf("engine: %d domains out of range", numDomains))
	}
	s := &Sharded{domains: make([]Domain, numDomains)}
	for i := range s.domains {
		s.domains[i] = Domain{eng: s, id: int32(i)}
	}
	s.setShards(1)
	return s
}

// Domain returns domain i.
func (s *Sharded) Domain(i int) *Domain { return &s.domains[i] }

// Now returns the engine clock: the cycle of the last fired event, as of
// the end of the last Run. During a Run a sink reads its Domain's Now.
func (s *Sharded) Now() uint64 { return s.now }

// Shards returns the current shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Stats returns the scheduling ledger of the most recent Run.
func (s *Sharded) Stats() RunStats { return s.stats }

// DeclareEdge records that domain src may Send to domain dst with delay >=
// minDelay (>= 1). Every Send must use a declared edge at or above its
// floor (undeclared Sends panic), and the parallel scheduler derives
// per-shard lookahead from the declared graph: shard pairs connected only
// by long edges — or by no edge at all — let rounds advance many cycles at
// once.
// Declare edges during setup, before the first Run; redeclaring an edge
// keeps the smaller floor.
func (s *Sharded) DeclareEdge(src, dst int, minDelay uint64) {
	if minDelay == 0 {
		panic("engine: DeclareEdge requires minDelay >= 1")
	}
	if src == dst {
		panic("engine: DeclareEdge on a self edge (use After for local events)")
	}
	d := len(s.domains)
	if s.edgeMin == nil {
		s.edgeMin = make([]uint64, d*d)
	}
	at := src*d + dst
	if cur := s.edgeMin[at]; cur == 0 || minDelay < cur {
		s.edgeMin[at] = minDelay
	}
	s.look = nil
}

// Pending returns the number of queued events across all shards.
func (s *Sharded) Pending() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].q.len()
		for _, row := range s.shards[i].out {
			total += len(row)
		}
	}
	return total
}

// SetShards regroups the domains onto k shards (clamped to [1, domains])
// round-robin. It must be called with no queued events — between Runs —
// because events live in per-shard queues. Results are identical at any k;
// only wall-clock changes.
func (s *Sharded) SetShards(k int) {
	if s.Pending() != 0 {
		panic("engine: SetShards with events queued")
	}
	if k < 1 {
		k = 1
	}
	if k > len(s.domains) {
		k = len(s.domains)
	}
	s.setShards(k)
	for i := range s.domains {
		s.domains[i].shard = int32(i % k)
	}
}

// AssignShards regroups the domains onto k shards with an explicit
// placement: shardOf(i) returns the shard (in [0, k)) owning domain i.
// Like SetShards it requires no queued events. Placement never affects
// results — only which pairs of domains share a thread, and therefore the
// per-shard-pair lookahead the scheduler can exploit.
func (s *Sharded) AssignShards(k int, shardOf func(domain int) int) {
	if s.Pending() != 0 {
		panic("engine: AssignShards with events queued")
	}
	if k < 1 || k > len(s.domains) {
		panic(fmt.Sprintf("engine: AssignShards k=%d out of range [1,%d]", k, len(s.domains)))
	}
	assign := make([]int32, len(s.domains))
	for i := range s.domains {
		sh := shardOf(i)
		if sh < 0 || sh >= k {
			panic(fmt.Sprintf("engine: AssignShards placed domain %d on shard %d (k=%d)", i, sh, k))
		}
		assign[i] = int32(sh)
	}
	s.setShards(k)
	for i := range s.domains {
		s.domains[i].shard = assign[i]
	}
}

// setShards rebuilds the shard states for k shards. Every queue is empty
// (callers check Pending), so an unchanged shard count keeps the existing
// states and their queue storage, restarted at the engine clock.
func (s *Sharded) setShards(k int) {
	if len(s.shards) != k {
		s.shards = make([]shardState, k)
		for i := range s.shards {
			s.shards[i].out = make([][]sevent, k)
		}
		s.pub = make([]pubSlot, k)
		s.bounds = make([]boundSlot, k)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.now = s.now
		sh.q.cur, sh.q.nearOK = s.now, false
		sh.events, sh.timestamps, sh.crossSent = 0, 0, 0
	}
	for i := range s.pub {
		s.pub[i].min = 0
		s.pub[i].sent.Store(0)
		s.bounds[i].v = 0
	}
	s.look = nil
}

// Reset returns the engine to the state NewSharded left it in — clock 0,
// one shard, no declared edges or tickers, every domain's scheduling
// sequence restarted — keeping its domains, their bound sinks and the
// queue storage. It must be called with no queued events.
func (s *Sharded) Reset() {
	if s.Pending() != 0 {
		panic("engine: Reset with events queued")
	}
	s.now = 0
	s.stats = RunStats{}
	s.edgeMin = nil
	s.tickers = nil
	for i := range s.domains {
		s.domains[i].seq = 0
		s.domains[i].shard = 0
	}
	s.setShards(1)
}

// buildLookahead fills look[to*K+from] with the minimum total delay of any
// WALK (one or more edges, possibly through other shards) from a domain on
// shard `from` to a domain on shard `to`; noEvent when no such walk
// exists. The diagonal holds each shard's shortest return cycle.
//
// The walk closure — not just the direct edge minimum — is what makes the
// per-round fire bounds conservative: a shard's bound must protect it from
// every chain of cause and effect rooted at another shard's round-start
// minimum, including chains that bounce through third shards or that
// originate in the shard's own queue and return to it. Each hop of such a
// chain adds at least the traversed edge's declared floor, so the earliest
// any chain rooted at cycle m on shard f can deliver into shard t is
// m + look[t*K+f].
func (s *Sharded) buildLookahead() {
	k := len(s.shards)
	s.look = make([]uint64, k*k)
	for i := range s.look {
		s.look[i] = noEvent
	}
	d := len(s.domains)
	for e, m := range s.edgeMin {
		if m == 0 {
			continue
		}
		sf, df := int(s.domains[e/d].shard), int(s.domains[e%d].shard)
		if df == sf {
			continue // same-shard delivery needs no cross-shard bound
		}
		if at := df*k + sf; m < s.look[at] {
			s.look[at] = m
		}
	}
	// Floyd–Warshall over the shard graph (diagonal starts at noEvent, so
	// the result is the min-delay walk with >= 1 edge for every pair,
	// including each shard's shortest return cycle on the diagonal).
	for mid := 0; mid < k; mid++ {
		for from := 0; from < k; from++ {
			a := s.look[mid*k+from]
			if a == noEvent {
				continue
			}
			for to := 0; to < k; to++ {
				b := s.look[to*k+mid]
				if b == noEvent {
					continue
				}
				if v := a + b; v < s.look[to*k+from] {
					s.look[to*k+from] = v
				}
			}
		}
	}
}

// SetTicker installs (or, with fn == nil or every == 0, removes) a
// boundary hook in the given slot, armed at the first multiple of every
// strictly after the current cycle. Slots are independent, so several
// subsystems (the observability sampler, the fault-class strike injector)
// can tick at different periods without clobbering each other; a boundary
// due in several slots fires them in ascending slot order. Tickers persist
// across Runs and must only be (un)installed between Runs.
func (s *Sharded) SetTicker(slot int, every uint64, fn func(boundary uint64)) {
	if slot < 0 {
		panic("engine: negative ticker slot")
	}
	for slot >= len(s.tickers) {
		s.tickers = append(s.tickers, ticker{})
	}
	if fn == nil || every == 0 {
		s.tickers[slot] = ticker{}
	} else {
		s.tickers[slot] = ticker{fn: fn, every: every, next: s.now - s.now%every + every}
	}
	// Trim dead tail slots so an armed-ticker check is len(tickers) > 0.
	for n := len(s.tickers); n > 0 && s.tickers[n-1].fn == nil; n = len(s.tickers) {
		s.tickers = s.tickers[:n-1]
	}
}

// tickNext returns the earliest pending ticker boundary and its slot (a
// shared boundary resolves to the lowest slot); noEvent and -1 when no
// ticker is armed.
func (s *Sharded) tickNext() (uint64, int) {
	b, slot := uint64(noEvent), -1
	for i := range s.tickers {
		if t := &s.tickers[i]; t.fn != nil && t.next < b {
			b, slot = t.next, i
		}
	}
	return b, slot
}

// fireTickers fires every pending ticker boundary <= limit in (boundary,
// slot) order, advancing each slot past its fired boundary.
func (s *Sharded) fireTickers(limit uint64) {
	for {
		b, slot := s.tickNext()
		if slot < 0 || b > limit {
			return
		}
		t := &s.tickers[slot]
		t.next += t.every
		t.fn(b)
	}
}

// Run fires events until every queue drains and returns the final cycle.
func (s *Sharded) Run() uint64 {
	s.stats = RunStats{}
	if len(s.shards) == 1 {
		return s.runSerial()
	}
	return s.runParallel()
}

// runSerial fires the one shard's events in (when, key) order. With
// tickers armed it fires in stretches ending at the next ticker boundary,
// running the boundary's hooks before the first event at or after it.
func (s *Sharded) runSerial() uint64 {
	sh := &s.shards[0]
	for {
		bound := uint64(noEvent)
		if len(s.tickers) > 0 {
			t := sh.q.minWhen()
			if t == noEvent {
				break
			}
			s.now = sh.now
			s.fireTickers(t)
			bound, _ = s.tickNext()
		}
		s.fire(sh, bound)
		if bound == noEvent {
			break
		}
	}
	s.now = sh.now
	s.stats.Events, s.stats.Timestamps = sh.events, sh.timestamps
	sh.events, sh.timestamps = 0, 0
	return s.now
}

// fire pops and dispatches the shard's events below bound in (when, key)
// order, the inner loop of both the serial run and a parallel round, and
// adds them to the shard's event and timestamp counts. Every bound ends a
// stretch on a cycle boundary, so a cycle split across two calls is never
// counted twice.
func (s *Sharded) fire(sh *shardState, bound uint64) {
	var events, stamps uint64
	last := uint64(noEvent)
	for {
		when, dst, kind, a, b, ok := sh.q.pop(bound)
		if !ok {
			break
		}
		if when != last {
			stamps++
			last = when
		}
		events++
		sh.now = when
		s.domains[dst].sink.OnEvent(kind, a, b)
	}
	sh.events += events
	sh.timestamps += stamps
}

func (s *Sharded) runParallel() uint64 {
	k := len(s.shards)
	if s.look == nil {
		s.buildLookahead()
	}
	bar := newBarrier(uint64(k))
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.worker(w, bar)
		}(w)
	}
	wg.Wait()
	// The engine clock is the cycle of the last fired event: with
	// coalesced rounds each shard's now holds its own last-fired cycle, so
	// the global clock is their maximum (unchanged if nothing fired).
	for i := range s.shards {
		if sh := &s.shards[i]; sh.events != 0 && sh.now > s.now {
			s.now = sh.now
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.now = s.now
		s.stats.Events += sh.events
		s.stats.Timestamps += sh.timestamps
		s.stats.CrossShardMessages += sh.crossSent
		sh.events, sh.timestamps, sh.crossSent = 0, 0, 0
	}
	return s.now
}

// combinePlan runs inside the barrier on the last arriver: it reads every
// shard's published min, computes the global minimum and each shard's fire
// bound for the next round, and collects the cross-shard-traffic flag. A
// shard's bound is the earliest cycle at which any OTHER shard could still
// deliver a message to it — min over peers of (peer min + pair lookahead)
// — so firing everything strictly below the bound is safe. The shard
// holding the global minimum always has bound > globalMin (its peers are
// at >= globalMin and every lookahead is >= 1), which guarantees progress.
func (s *Sharded) combinePlan() {
	k := len(s.shards)
	g := noEvent
	for i := range s.pub {
		if m := s.pub[i].min; m < g {
			g = m
		}
	}
	s.hdr.globalMin = g
	if g == noEvent {
		return
	}
	// Clear any sent flags left by setup-time Sends: the pre-run ingest
	// already drained those outboxes, and this runs on the first barrier
	// with every worker parked. In steady state Sends only happen during
	// firing and are collected by combineTraffic, so this scan is a no-op.
	for i := range s.pub {
		if s.pub[i].sent.Load() != 0 {
			s.pub[i].sent.Store(0)
		}
	}
	// bound[to] = min over every shard `from` (including to itself, via
	// its shortest return cycle) of from's round-start minimum plus the
	// closed-walk lookahead from→to: the earliest cycle at which any chain
	// of not-yet-fired work anywhere could deliver an event into `to`.
	for to := 0; to < k; to++ {
		bound := noEvent
		row := s.look[to*k : to*k+k]
		for from := 0; from < k; from++ {
			m := s.pub[from].min
			l := row[from]
			if m == noEvent || l == noEvent {
				continue
			}
			v := m + l
			if v < m { // overflow: treat as unbounded
				continue
			}
			if v < bound {
				bound = v
			}
		}
		s.bounds[to].v = bound
	}
}

// worker advances one shard through lock-step rounds. Each round fires all
// local events strictly below the shard's bound (computed by the previous
// barrier's combiner), then synchronizes: a traffic barrier whose combiner
// ORs the per-shard sent flags, an optional mailbox ingest, and a plan
// barrier whose combiner publishes the next global minimum and bounds.
// Because every cross-shard Send travels an edge with lookahead >= the
// pair's table entry, a message created by an event at cycle >= peerMin
// arrives at >= peerMin + lookahead >= bound — never inside the window a
// shard is firing.
func (s *Sharded) worker(w int, bar *barrier) {
	sh := &s.shards[w]
	pub := &s.pub[w]
	// Setup-time Sends may have left rows in cross-shard outboxes (and set
	// sent flags); ingest them before publishing the initial minimum so no
	// shard's first min misses mailbox-only events.
	s.ingest(w)
	pub.min = sh.q.minWhen()
	bar.wait(s.combinePlan)
	for {
		t := s.hdr.globalMin
		if t == noEvent {
			return
		}
		if len(s.tickers) > 0 {
			if b, _ := s.tickNext(); b <= t {
				// Every worker saw the same t and ticker state (written only
				// by worker 0 between barriers), so all take this branch
				// together; worker 0 fires the hooks while the rest hold at
				// the second barrier with their domains parked.
				bar.wait(nil)
				if w == 0 {
					s.fireTickers(t)
				}
				bar.wait(nil)
			}
		}
		bound := s.bounds[w].v
		if len(s.tickers) > 0 {
			if b, _ := s.tickNext(); b < bound {
				// Never fire past the next ticker boundary: hooks must run
				// with all shards parked before any event at or after it.
				bound = b
			}
		}
		s.fire(sh, bound)
		bar.wait(s.combineTraffic)
		if s.hdr.ingest != 0 {
			s.ingest(w)
		} else if w == 0 {
			s.stats.IngestsSkipped++
		}
		if w == 0 {
			s.stats.Rounds++
		}
		pub.min = sh.q.minWhen()
		bar.wait(s.combinePlan)
	}
}

// combineTraffic ORs and clears the per-shard sent flags so the round's
// ingest phase can be skipped when no cross-shard message is in flight.
func (s *Sharded) combineTraffic() {
	ingest := uint32(0)
	for i := range s.pub {
		if s.pub[i].sent.Load() != 0 {
			ingest = 1
			s.pub[i].sent.Store(0)
		}
	}
	s.hdr.ingest = ingest
}

// ingest drains column w of every shard's outbox into shard w's queue.
func (s *Sharded) ingest(w int) {
	sh := &s.shards[w]
	for i := range s.shards {
		src := &s.shards[i]
		row := src.out[w]
		for j := range row {
			ev := &row[j]
			sh.q.push(ev.when, ev.key, ev.a, ev.b, ev.dst, ev.kind)
		}
		src.out[w] = row[:0]
	}
}

// barrier is a monotone-counter combining barrier: arrival n completes
// phase n/size; the last arriver of a phase runs the phase's combine
// function (with every peer parked, so it may read all published slots)
// and then releases the phase. The counters never reset, which avoids the
// classic sense-reversal race where a fast worker laps a slow one.
type barrier struct {
	size    uint64
	arrive  atomic.Uint64
	_       [48]byte
	release atomic.Uint64
	_pad2   [56]byte
	// spinBudget is how long a waiter hot-spins before yielding; shrunk
	// when size exceeds GOMAXPROCS so oversubscribed runs park instead of
	// burning whole quanta.
	spinBudget int
	oversubed  bool
}

func newBarrier(size uint64) *barrier {
	b := &barrier{size: size, spinBudget: 64}
	if int(size) > runtime.GOMAXPROCS(0) {
		b.spinBudget = 1
		b.oversubed = true
	}
	return b
}

// wait blocks until all size workers arrive; the last arriver runs combine
// (if non-nil) before releasing the phase. The release store happens after
// combine's writes and the waiters' loads synchronize with it, so combine's
// results are visible to every worker on return.
func (b *barrier) wait(combine func()) {
	a := b.arrive.Add(1)
	phase := (a + b.size - 1) / b.size
	if a == phase*b.size {
		if combine != nil {
			combine()
		}
		b.release.Store(phase)
		return
	}
	backoff := 0
	for spins := 0; b.release.Load() < phase; spins++ {
		if spins < b.spinBudget {
			continue
		}
		if !b.oversubed {
			runtime.Gosched()
			continue
		}
		// Oversubscribed: escalate from yield to sleep so K ≫ GOMAXPROCS
		// degrades to scheduling latency instead of livelock-adjacent spin.
		if backoff < 6 {
			runtime.Gosched()
			backoff++
			continue
		}
		shift := backoff - 6
		if shift > 6 {
			shift = 6
		}
		time.Sleep(time.Microsecond << shift)
		backoff++
	}
}
