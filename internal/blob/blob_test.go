package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func payload(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*7)
	}
	return b
}

func TestCachePutGetRoundTrip(t *testing.T) {
	c := NewCache(0)
	data := payload(1, 2048)
	d := Sum(data)
	if err := c.Put(d, data); err != nil {
		t.Fatal(err)
	}
	got, hit, err := c.Get(d)
	if err != nil || !hit {
		t.Fatalf("get: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cached bytes differ from stored bytes")
	}
	// The cache stores a copy: mutating the caller's slice afterwards
	// must not corrupt the entry.
	data[0] ^= 0xFF
	if got2, hit, err := c.Get(d); err != nil || !hit || bytes.Equal(got2, data) {
		t.Fatalf("cache aliased the caller's slice: hit=%v err=%v", hit, err)
	}
}

func TestCachePutRejectsMismatch(t *testing.T) {
	c := NewCache(0)
	data := payload(2, 1024)
	wrong := Sum(payload(3, 1024))
	if err := c.Put(wrong, data); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("put under a foreign digest: %v, want ErrDigestMismatch", err)
	}
	if _, hit, _ := c.Get(wrong); hit {
		t.Fatal("mismatched content was stored anyway")
	}
}

func TestCachePoisonSurfacesOnGet(t *testing.T) {
	c := NewCache(0)
	data := payload(4, 4096)
	d := Sum(data)
	if err := c.Put(d, data); err != nil {
		t.Fatal(err)
	}
	if !c.poison(d) {
		t.Fatal("poison found no entry")
	}
	if _, _, err := c.Get(d); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("get of poisoned entry: %v, want ErrDigestMismatch", err)
	}
	// The poisoned entry was dropped: the next lookup is a clean miss,
	// so a refetch can repopulate.
	if _, hit, err := c.Get(d); hit || err != nil {
		t.Fatalf("poisoned entry lingered: hit=%v err=%v", hit, err)
	}
	if err := c.Put(d, payload(4, 4096)); err != nil {
		t.Fatalf("repopulate after poison: %v", err)
	}
}

func TestCachePoisonNewest(t *testing.T) {
	c := NewCache(0)
	if c.PoisonNewest() {
		t.Fatal("poisoned an empty cache")
	}
	old := payload(5, 1024)
	fresh := payload(6, 1024)
	if err := c.Put(Sum(old), old); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(Sum(fresh), fresh); err != nil {
		t.Fatal(err)
	}
	if !c.PoisonNewest() {
		t.Fatal("poison found no entry")
	}
	if _, _, err := c.Get(Sum(fresh)); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("newest entry should be the poisoned one: %v", err)
	}
	if _, hit, err := c.Get(Sum(old)); !hit || err != nil {
		t.Fatalf("older entry should be intact: hit=%v err=%v", hit, err)
	}
}

// TestCachePoisonLeavesHeldSliceIntact pins copy-on-write poisoning: a
// reader that got the slice from Get keeps seeing the verified bytes while
// the hook fires underneath it (under -race the old in-place flip is a
// reported write against these reads), and only the next Get fails.
func TestCachePoisonLeavesHeldSliceIntact(t *testing.T) {
	c := NewCache(0)
	data := payload(7, 8192)
	d := Sum(data)
	if err := c.Put(d, data); err != nil {
		t.Fatal(err)
	}
	held, hit, err := c.Get(d)
	if !hit || err != nil {
		t.Fatalf("get: hit=%v err=%v", hit, err)
	}
	reading := make(chan struct{})
	done := make(chan bool)
	go func() {
		close(reading)
		ok := true
		for i := 0; i < 200; i++ {
			ok = ok && Sum(held) == d
		}
		done <- ok
	}()
	<-reading
	if !c.PoisonNewest() {
		t.Fatal("poison found no entry")
	}
	if !<-done {
		t.Fatal("poisoning changed bytes a reader already held")
	}
	if _, _, err := c.Get(d); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("get after poison: %v, want ErrDigestMismatch", err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3 * 1024)
	digests := make([]Digest, 4)
	for i := range digests {
		data := payload(byte(10+i), 1024)
		digests[i] = Sum(data)
		if err := c.Put(digests[i], data); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, _ := c.Get(digests[0]); hit {
		t.Fatal("oldest entry survived past the cap")
	}
	for _, d := range digests[1:] {
		if _, hit, err := c.Get(d); !hit || err != nil {
			t.Fatalf("recent entry evicted early: hit=%v err=%v", hit, err)
		}
	}
}

func TestCacheDegenerateCap(t *testing.T) {
	// A negative cap keeps exactly the newest entry: the reference
	// protocol still works, cross-input reuse does not.
	c := NewCache(-1)
	a, b := payload(20, 1500), payload(21, 1500)
	if err := c.Put(Sum(a), a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(Sum(b), b); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.Get(Sum(a)); hit {
		t.Fatal("degenerate cache held more than the newest entry")
	}
	if _, hit, err := c.Get(Sum(b)); !hit || err != nil {
		t.Fatalf("degenerate cache lost its newest entry: hit=%v err=%v", hit, err)
	}
}

func TestInternAddGet(t *testing.T) {
	in := NewIntern(0)
	data := payload(30, 8192)
	d := Sum(data)
	if _, hit := in.Get(d); hit {
		t.Fatal("hit before add")
	}
	in.Add(d, data)
	got, hit := in.Get(d)
	if !hit || !bytes.Equal(got, data) {
		t.Fatalf("interned bytes differ: hit=%v", hit)
	}
}

func TestSumOf(t *testing.T) {
	d := Sum([]byte("x"))
	if got, ok := SumOf(d[:]); !ok || got != d {
		t.Fatalf("SumOf round trip failed: ok=%v", ok)
	}
	if _, ok := SumOf(d[:31]); ok {
		t.Fatal("SumOf accepted a short digest")
	}
	// SumOf copies out of the frame buffer it aliases.
	wire := append([]byte(nil), d[:]...)
	got, _ := SumOf(wire)
	wire[0] ^= 0xFF
	if got != d {
		t.Fatal("SumOf aliased the wire bytes")
	}
}

func TestFlowStatsIndependentCounters(t *testing.T) {
	var s FlowStats
	s.Hits.Add(2)
	s.Misses.Add(1)
	if h, m, e := s.Hits.Load(), s.Misses.Load(), s.Evicts.Load(); h != 2 || m != 1 || e != 0 {
		t.Fatal(fmt.Sprintf("counters crossed: hits=%d misses=%d evicts=%d", h, m, e))
	}
}

// TestInternAdmitsSecondSighting pins the doorkeeper: a payload is
// admitted on its second sighting, stays admitted while fewer than
// DoorkeeperKeys distinct payloads follow it, and is forgotten after that.
func TestInternAdmitsSecondSighting(t *testing.T) {
	in := NewIntern(0)
	first := []byte("first sighting")
	if in.Admit(first) {
		t.Fatal("first sighting admitted")
	}
	if !in.Admit(first) {
		t.Fatal("second sighting not admitted")
	}
	var key [8]byte
	for i := 0; i < DoorkeeperKeys-1; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i))
		if in.Admit(key[:]) {
			t.Fatalf("distinct payload %d admitted on its first sighting", i)
		}
	}
	if !in.Admit(first) {
		t.Fatalf("forgotten after %d other payloads, want remembered", DoorkeeperKeys-1)
	}
	binary.LittleEndian.PutUint64(key[:], DoorkeeperKeys)
	in.Admit(key[:])
	if in.Admit(first) {
		t.Fatalf("remembered after %d other payloads, want forgotten", DoorkeeperKeys)
	}
}

// TestInternAdmitConcurrent: the doorkeeper is job-wide, so every
// channel's sender admits through it at once. Of many concurrent first
// sightings of one payload, exactly one is the first.
func TestInternAdmitConcurrent(t *testing.T) {
	in := NewIntern(0)
	data := payload(7, 2048)
	var firsts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if !in.Admit(data) {
					firsts.Add(1)
				}
				in.Admit([]byte(fmt.Sprintf("payload %d/%d", g, i)))
			}
		}()
	}
	wg.Wait()
	if n := firsts.Load(); n != 1 {
		t.Fatalf("%d first sightings of one payload, want 1", n)
	}
}
