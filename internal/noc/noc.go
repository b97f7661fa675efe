// Package noc implements a cycle-accurate network-on-chip simulator for a
// 2-D mesh of input-queued virtual-channel wormhole routers with
// credit-based flow control, in the style of Stanford's Booksim 2 (the
// simulator used by Casu & Giaccone, "Rate-based vs Delay-based Control for
// DVFS in NoC", DATE 2015).
//
// The router is the canonical four-stage pipeline:
//
//	RC  — route computation for the head flit at the front of an input VC
//	VA  — virtual-channel allocation (separable, input-first, round-robin)
//	SA  — switch allocation (two-phase round-robin: per-input then per-output)
//	ST+LT — switch and link traversal; the flit is written into the
//	        downstream input buffer one cycle later, and a credit is
//	        returned upstream with one cycle of delay
//
// The package is deliberately agnostic of real time: it advances in network
// clock cycles. DVFS (variable network frequency against a fixed node
// frequency) is layered on top by package sim, which converts cycles to
// seconds and drives the injection processes in the node clock domain.
//
// All randomness used inside the network (e.g. O1TURN dimension selection)
// is injected by the caller, keeping simulations fully deterministic for a
// given seed.
//
// # Stage-major stepping
//
// The hot loop is stage-major, not router-major: each cycle sweeps every
// active router's RC stage, then every VA, then every SA, walking
// per-stage bitmasks over contiguous per-VC state (one packed 16-byte
// record per virtual channel, flit payloads in flat per-network rings).
// A router streaming a packet body has SA work every cycle but RC and VA
// work only once per packet, so the per-stage masks let the RC and VA
// sweeps skip it entirely. Within a cycle routers interact only through
// events staged for the next cycle: a sender writes the outgoing flit
// directly into the destination ring slot (exactly one flit per router
// and input port can arrive per cycle, so the slot has a single writer)
// and stages one packed 8-byte link event carrying the arrival notice and
// the piggybacked upstream credit, applied at the start of cycle t+1.
//
// # Row shards and a second core
//
// Meshes of more than heavySARouters routers are cut into two bands of
// rows, each owning its routers' bookkeeping and staged events, and a
// Step is (deliver -> compute) per shard, then eject. A flit bound for the
// other band travels inside its notice instead of being written into the
// other band's ring, so no shard writes another's routers, and the two
// shards of a cycle can run at once. They do when the network has
// borrowed a second core (see Spare, which sim.Params carries and
// core.runSim fills from exp's leaf budget) and the cycle is heavy: the
// caller steps one shard while a helper goroutine, spinning for the
// duration, steps the other — one fork–join per cycle. Otherwise the
// caller steps both. Results are bit-identical either way, and identical
// to the reference model in spec_test.go, a plain textbook router that
// the engine is stepped against in lockstep.
package noc
