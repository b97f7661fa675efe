package freelist

import (
	"sync"
	"testing"
)

func TestGetReturnsWhatPutStored(t *testing.T) {
	var l List[string, *int]
	if _, ok := l.Get("a"); ok {
		t.Fatal("an empty list served a Get")
	}
	x, y := new(int), new(int)
	l.Put("a", x)
	l.Put("b", y)
	if v, ok := l.Get("b"); !ok || v != y {
		t.Fatal("Get(b) did not return the object stored under b")
	}
	if _, ok := l.Get("b"); ok {
		t.Fatal("one Put served two Gets")
	}
	if v, ok := l.Get("a"); !ok || v != x {
		t.Fatal("Get(a) did not return the object stored under a")
	}
	if built, reused, evicted := l.Stats(); built != 2 || reused != 2 || evicted != 0 {
		t.Fatalf("stats %d built, %d reused, %d evicted; want 2, 2, 0", built, reused, evicted)
	}
}

// TestBounds fills the list past both of its limits: it never holds more
// than MaxPerKey objects under a key nor objects for more than MaxKeys
// keys, and the key it gives up is the least recently used.
func TestBounds(t *testing.T) {
	var l List[int, int]
	for i := 0; i < MaxPerKey+3; i++ {
		for key := 0; key < MaxKeys; key++ {
			l.Put(key, i)
		}
	}
	for key := 0; key < MaxKeys; key++ {
		if n := l.Len(key); n != MaxPerKey {
			t.Fatalf("key %d holds %d objects, want %d", key, n, MaxPerKey)
		}
	}
	if _, _, evicted := l.Stats(); evicted != 3*MaxKeys {
		t.Fatalf("%d evicted filling each key 3 past its bound, want %d", evicted, 3*MaxKeys)
	}
	// Key 0 is the oldest; using it makes key 1 the one to go.
	if _, ok := l.Get(0); !ok {
		t.Fatal("key 0 was dropped while the list was within bounds")
	}
	l.Put(MaxKeys, 0)
	held := 0
	for key := 0; key <= MaxKeys; key++ {
		if n := l.Len(key); n > 0 {
			held++
		} else if key != 1 {
			t.Errorf("key %d was dropped, want the least recently used key 1", key)
		}
	}
	if held != MaxKeys {
		t.Fatalf("the list holds objects for %d keys, want %d", held, MaxKeys)
	}
	if _, _, evicted := l.Stats(); evicted != 3*MaxKeys+MaxPerKey {
		t.Fatalf("%d evicted after dropping a full key, want %d", evicted, 3*MaxKeys+MaxPerKey)
	}
	l.Flush()
	if _, ok := l.Get(0); ok {
		t.Fatal("Get served from a flushed list")
	}
}

// TestIdleKeyIsDropped: what the list holds for a key goes once IdleOps
// operations have passed it by, and not one operation sooner.
func TestIdleKeyIsDropped(t *testing.T) {
	var l List[string, int]
	l.Put("idle", 1)
	l.Put("idle", 2)
	for op := 1; op <= IdleOps; op++ {
		if op%2 == 1 {
			l.Put("busy", op)
		} else if _, ok := l.Get("busy"); !ok {
			t.Fatal("the busy key lost its object")
		}
	}
	if n := l.Len("idle"); n != 2 {
		t.Fatalf("after %d operations elsewhere the idle key holds %d objects, want 2", IdleOps, n)
	}
	l.Put("busy", 0)
	if n := l.Len("idle"); n != 0 {
		t.Fatalf("after %d operations elsewhere the idle key still holds %d objects", IdleOps+1, n)
	}
	if _, _, evicted := l.Stats(); evicted != 2 {
		t.Fatalf("%d evicted, want the idle key's 2", evicted)
	}
}

// TestConcurrentUsers: run with -race. No object is ever held by two
// users at once.
func TestConcurrentUsers(t *testing.T) {
	var l List[int, *int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v, ok := l.Get(i % 3)
				if !ok {
					v = new(int)
				}
				*v++ // a second holder would make this a data race
				l.Put(i%3, v)
			}
		}()
	}
	wg.Wait()
	built, reused, _ := l.Stats()
	if built+reused != 16000 || built > 8*3 {
		t.Fatalf("%d built, %d reused over 16000 Gets by 8 users of 3 keys", built, reused)
	}
}
