package noc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Spare lends a network a second core for its heavy cycles. It stands for
// a slot of whatever budget bounds the process's concurrent simulations
// (package exp's leaf budget, which nocsim.runSim hands down through
// sim.Params): a network borrows one without blocking when a cycle is
// heavy, steps its second row shard on a helper goroutine while it holds
// it, and gives it back within one cycle of Wanted turning true.
type Spare interface {
	// TryBorrow takes a free slot without blocking. It fails when none is
	// free or another run waits for one.
	TryBorrow() bool
	// Wanted reports whether another run waits for a slot. A borrower
	// asks every cycle, so it must be a lock-free load.
	Wanted() bool
	// Return gives a borrowed slot back.
	Return()
}

const (
	// heavySARouters is the number of routers with SA work from which a
	// cycle is stepped on two goroutines. Forking costs a sharded cycle
	// the fork–join itself (0.2–0.65 µs between two spinning goroutines
	// on a two-vCPU host) plus the cache lines its shards exchange —
	// carried flits, credits, packets: about 1–2 µs a cycle at
	// saturation — while a saturated router costs 0.1–0.3 µs a cycle. An
	// 8x8 at 0.85 of uniform saturation (56–64 such routers, 17 µs a
	// cycle) steps 1.7x as fast split; at 40 of them (6 µs) 1.1x; a 5x5
	// at 24 of them (5 µs) no faster, and slower below.
	heavySARouters = 32
	// borrowRetryCycles spaces the attempts to borrow a slot: each takes
	// the budget's lock, and one that failed has no reason to succeed
	// the next cycle.
	borrowRetryCycles = 1024
	// lightReturnCycles gives a held slot back after this many light
	// cycles in a row, so a run that has left saturation stops a helper
	// spinning on its behalf.
	lightReturnCycles = 4096
	// spinFor is how long a waiting side of the fork–join spins before
	// it yields the processor on every further turn. A heavy cycle's
	// wait — for the shard the helper claimed, or the helper's for the
	// caller's serial phase between two cycles — takes a few to a few
	// tens of µs; one that takes longer means the two sides share a P or
	// the run has gone light, and then spinning only delays the other
	// side. A helper that is not running when the caller is done does not
	// make it wait at all (see fork).
	spinFor = 50 * time.Microsecond
)

// The states of a network's helper (lender.state). The caller moves
// idle -> hired (hire) and hired/live -> quit (giveBack); the helper
// moves hired -> live on arrival and quit -> idle when it lets go.
const (
	helperIdle int32 = iota
	helperHired
	helperLive
	helperQuit
)

// cacheLinePad keeps the fork–join words that the caller and the helper
// spin on off each other's cache lines.
type cacheLinePad struct{ _ [64]byte }

// lender is a network's side of the Spare protocol and of the fork–join
// with its helper. All but the atomics and what they publish (panicked)
// belong to the goroutine calling Step.
type lender struct {
	// The caller writes the fields below every cycle: keep them off the
	// line of the Network fields the helper reads.
	_     cacheLinePad
	spare Spare
	// forced is the tests' hook: every cycle with SA work is heavy.
	forced  bool
	held    bool
	retryAt int64
	light   int
	// borrowed and sharded are this run's counters (SpareUse).
	borrowed bool
	sharded  int64

	// panicked is what the helper's shard panicked with.
	panicked any

	// The caller posts each cycle to split in start (cycles only grow
	// within a run, and Reset zeroes both). The shards after the first
	// go to whichever side claims them first in turn: it reads 2c while
	// the helper steps those of cycle c, and 2c+1 once they are done.
	_     cacheLinePad
	state atomic.Int32
	_     cacheLinePad
	start atomic.Int64
	_     cacheLinePad
	turn  atomic.Int64
	_     cacheLinePad
}

// SetSpare installs where the network may borrow a second core from (nil:
// step on the calling goroutine only; a mesh of one row shard never
// borrows). It first gives back any slot the network holds and waits
// until the helper has let go of the network, so a run that ends with
// SetSpare(nil) — panicking runs included — leaves no goroutine touching
// it and no slot borrowed.
func (n *Network) SetSpare(s Spare) {
	l := &n.lend
	if l.held {
		n.giveBack()
	}
	for sp := (spinner{}); l.state.Load() != helperIdle; {
		sp.wait()
	}
	if len(n.shards) < 2 {
		s = nil
	}
	l.spare = s
}

// SpareUse reports whether the run since the last Reset borrowed a spare
// core and how many cycles it stepped split across two goroutines.
func (n *Network) SpareUse() (borrowed bool, shardedCycles int64) {
	return n.lend.borrowed, n.lend.sharded
}

// resetLend returns the protocol to its as-built state; SetSpare(nil)
// must have run.
func (n *Network) resetLend() {
	l := &n.lend
	l.spare = nil
	l.forced = false
	l.held, l.retryAt, l.light = false, 0, 0
	l.borrowed, l.sharded, l.panicked = false, 0, nil
	l.start.Store(0)
	l.turn.Store(0)
}

// lendCycle runs the Spare protocol for one cycle and reports whether the
// cycle is to be split across the helper: it is heavy, a slot is held and
// the helper is spinning. A held slot is given back here, within the
// cycle, once anyone waits for it or the run has stayed light too long.
func (n *Network) lendCycle() bool {
	l := &n.lend
	if !l.held {
		if n.cycle < l.retryAt || !n.heavy() {
			return false
		}
		l.retryAt = n.cycle + borrowRetryCycles
		if l.state.Load() == helperIdle && l.spare.TryBorrow() {
			l.held, l.borrowed, l.light = true, true, 0
			n.hire()
		}
		return false
	}
	if l.spare.Wanted() {
		n.giveBack()
		return false
	}
	if !n.heavy() {
		if l.light++; l.light >= lightReturnCycles {
			n.giveBack()
		}
		return false
	}
	l.light = 0
	return l.state.Load() == helperLive
}

// heavy reports whether the cycle about to run is worth splitting.
func (n *Network) heavy() bool {
	if n.lend.forced {
		return n.saRouters() > 0
	}
	return n.saRouters() >= heavySARouters
}

// giveBack returns the held slot and tells the helper to let go; it does
// not wait for it (SetSpare does).
func (n *Network) giveBack() {
	l := &n.lend
	l.state.Store(helperQuit)
	l.spare.Return()
	l.held = false
	l.retryAt = n.cycle + borrowRetryCycles
}

// idleHelpers is where helper goroutines park between runs: hire hands
// the network to a parked one, or starts one when none is parked. A
// helper parked for helperLinger exits, so there are never more helpers
// than runs that held a slot at one time, and none once borrowing stops.
var idleHelpers = make(chan *Network)

// helperLinger is how long a helper stays parked for the next run; a
// sweep's runs follow one another within milliseconds.
const helperLinger = time.Second

func (n *Network) hire() {
	n.lend.state.Store(helperHired)
	select {
	case idleHelpers <- n:
	default:
		go helper(n)
	}
}

// helper serves one network after another, parking in between.
func helper(n *Network) {
	linger := time.NewTimer(helperLinger)
	for {
		n.serve()
		n = nil
		linger.Reset(helperLinger)
		select {
		case n = <-idleHelpers:
		case <-linger.C:
			return
		}
	}
}

// serve is the helper's side of the fork–join: it spins on start, steps
// the shards after the first for every cycle the caller posts and it
// claims before the caller does, and lets go of the network when the
// caller asks. A caller that gave the slot back before the helper arrived
// finds it letting go at once.
func (n *Network) serve() {
	l := &n.lend
	seen := l.start.Load() // before going live: the caller posts only after
	if !l.state.CompareAndSwap(helperHired, helperLive) {
		l.state.Store(helperIdle)
		return
	}
	for sp := (spinner{}); ; sp.wait() {
		if c := l.start.Load(); c != seen {
			seen = c
			if t := l.turn.Load(); t < 2*c && l.turn.CompareAndSwap(t, 2*c) {
				n.helperStep(c)
				l.turn.Store(2*c + 1)
			}
			sp = spinner{}
			continue
		}
		if l.state.Load() == helperQuit {
			l.state.Store(helperIdle)
			return
		}
	}
}

// helperStep steps the shards after the first, handing a panic to the
// caller instead of taking the process down.
func (n *Network) helperStep(cycle int64) {
	defer func() {
		if p := recover(); p != nil {
			n.lend.panicked = p
		}
	}()
	for i := 1; i < len(n.shards); i++ {
		n.shards[i].step(cycle)
	}
}

// fork steps one cycle on two goroutines: the caller steps shard 0, and
// completes last cycle's ejections, while the helper steps the rest. A
// helper that has not claimed them by then — its core is busy after all,
// with another process or the garbage collector — leaves them to the
// caller, so a late helper costs a cycle nothing but its inline time. The
// caller returns once both are done, re-raising a panic of the helper's
// shard.
func (n *Network) fork(cycle int64) {
	l := &n.lend
	l.start.Store(cycle)
	n.shards[0].step(cycle)
	n.eject(cycle)
	if t := l.turn.Load(); t < 2*cycle && l.turn.CompareAndSwap(t, 2*cycle+1) {
		for i := 1; i < len(n.shards); i++ {
			n.shards[i].step(cycle)
		}
		return
	}
	sp := spinner{}
	for l.turn.Load() != 2*cycle+1 {
		sp.wait()
	}
	l.sharded++
	if p := l.panicked; p != nil {
		l.panicked = nil
		panic(p)
	}
}

// spinner paces one spin-wait of the fork–join: free spinning for
// spinFor (the clock is read every 1024 turns), then a yield every turn.
type spinner struct {
	turns int
	since time.Time
	yield bool
}

func (s *spinner) wait() {
	switch s.turns++; {
	case s.yield:
		runtime.Gosched()
	case s.turns&1023 != 0:
	case s.since.IsZero():
		s.since = time.Now()
	default:
		s.yield = time.Since(s.since) > spinFor
	}
}
