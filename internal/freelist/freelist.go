// Package freelist keeps objects that cost more to build than to reset
// between the runs that use them: a run takes one with Get, builds its own
// on a miss, and hands it back with Put when it is done. Unlike sync.Pool
// the list is keyed (objects under different keys are not interchangeable)
// and bounded by constants, so what it retains can be stated: at most
// MaxPerKey objects for each of the MaxKeys most recently used keys, and
// nothing for a key that the last IdleOps operations did not touch.
//
// The list never looks inside an object. Whoever takes one out must put
// it into a known state before use, because the previous user may have
// abandoned it in any state.
package freelist

import "sync"

const (
	// MaxKeys is how many distinct keys a list holds objects for. Using a
	// key beyond that drops everything held for the least recently used.
	MaxKeys = 8
	// MaxPerKey is how many objects a list holds under one key, which
	// caps the number of concurrent users of a key that can all be served
	// from it.
	MaxPerKey = 16
	// IdleOps is how many Get and Put calls may pass without one naming a
	// key before the list gives up what it holds for it: 32 runs elsewhere,
	// at a Get and a Put per run. Memory held for a mesh the process has
	// moved on from is pure cost — live heap the collector sizes itself by.
	IdleOps = 64
)

// List is a keyed, bounded free list, safe for concurrent use. Its zero
// value is empty and ready.
type List[K comparable, V any] struct {
	mu sync.Mutex
	// slots is kept most recently used first; MaxKeys is small enough that
	// a linear search beats a map and an explicit recency order.
	slots                  []slot[K, V]
	ops                    int64 // Get and Put calls so far
	built, reused, evicted int64
}

type slot[K comparable, V any] struct {
	key  K
	free []V
	used int64 // the value of ops when the key was last named
}

// Get removes and returns an object held under key. On a miss the caller
// builds one, and Stats counts it as built.
func (l *List[K, V]) Get(key K) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	if i := l.find(key); i >= 0 {
		s := l.use(i)
		if last := len(s.free) - 1; last >= 0 {
			v = s.free[last]
			var zero V
			s.free[last] = zero
			s.free = s.free[:last]
			l.reused++
			return v, true
		}
	}
	l.built++
	return v, false
}

// Put hands an object back under key for a later Get. A full key drops
// it, and the call then drops whatever is held for keys that are one too
// many or have gone unused for IdleOps operations.
func (l *List[K, V]) Put(key K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	i := l.find(key)
	if i < 0 {
		l.slots = append(l.slots, slot[K, V]{key: key})
		i = len(l.slots) - 1
	}
	if s := l.use(i); len(s.free) == MaxPerKey {
		l.evicted++
	} else {
		s.free = append(s.free, v)
	}
	// The slot just used is at the front and never stale, so this stops.
	for n := len(l.slots); n > MaxKeys || l.ops-l.slots[n-1].used > IdleOps; n = len(l.slots) {
		l.evicted += int64(len(l.slots[n-1].free))
		l.slots[n-1] = slot[K, V]{}
		l.slots = l.slots[:n-1]
	}
}

// Flush drops everything the list holds; the counters keep counting.
func (l *List[K, V]) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.slots = nil
}

// Len returns the number of objects held under key.
func (l *List[K, V]) Len(key K) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := l.find(key); i >= 0 {
		return len(l.slots[i].free)
	}
	return 0
}

// Stats returns the list's cumulative counters: Get calls that missed (the
// caller built the object), Get calls served from the list, and objects
// dropped to keep the list inside its bounds.
func (l *List[K, V]) Stats() (built, reused, evicted int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.built, l.reused, l.evicted
}

func (l *List[K, V]) find(key K) int {
	for i := range l.slots {
		if l.slots[i].key == key {
			return i
		}
	}
	return -1
}

// use records that slot i's key was named just now, moves the slot to
// the front and returns it there.
func (l *List[K, V]) use(i int) *slot[K, V] {
	s := l.slots[i]
	s.used = l.ops
	copy(l.slots[1:i+1], l.slots[:i])
	l.slots[0] = s
	return &l.slots[0]
}
