package transport

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pando/internal/netsim"
	"pando/internal/proto"
)

// TestSignalServerOnLeavePrunesPeers: OnLeave mirrors OnJoin — it fires
// when a registered peer's signalling connection ends, after the peer
// has been pruned from Peers().
func TestSignalServerOnLeavePrunesPeers(t *testing.T) {
	ln := netsim.NewListener("signal-leave", netsim.Loopback)
	srv := NewSignalServer()
	var mu sync.Mutex
	var left []string
	srv.OnLeave = func(id string) {
		mu.Lock()
		left = append(left, id)
		mu.Unlock()
	}
	go srv.Serve(ln, Config{HeartbeatInterval: -1})
	defer srv.Close()

	dial := func() *WSock {
		c, _, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return NewWSock(c, Config{HeartbeatInterval: -1})
	}
	alice := dial()
	bob := dial()
	if err := JoinSignal(alice, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := JoinSignal(bob, "bob"); err != nil {
		t.Fatal(err)
	}
	if peers := srv.Peers(); len(peers) != 2 {
		t.Fatalf("peers = %v, want both registered", peers)
	}

	// Alice leaves gracefully; bob crashes (connection severed).
	_ = alice.Send(&proto.Message{Type: proto.TypeGoodbye})
	bob.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		peers := srv.Peers()
		mu.Lock()
		gone := len(left)
		mu.Unlock()
		if len(peers) == 0 && gone == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("departed peers not pruned: peers=%v onLeave=%v", peers, left)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(left, "alice") || !slices.Contains(left, "bob") {
		t.Fatalf("OnLeave calls = %v, want alice and bob", left)
	}
}

// TestSignalServerPoolAssignsMaster: in pool mode an offer with an empty
// destination is routed to a registered master — preferring one whose
// advertised functions intersect the volunteer's — and the volunteer
// learns the assignment from the answer's sender.
func TestSignalServerPoolAssignsMaster(t *testing.T) {
	ln := netsim.NewListener("signal-pool", netsim.Loopback)
	srv := NewSignalServer()
	srv.EnablePool()
	go srv.Serve(ln, Config{HeartbeatInterval: -1})
	defer srv.Close()

	dial := func() *WSock {
		c, _, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return NewWSock(c, Config{HeartbeatInterval: -1})
	}
	renderMaster := dial()
	if err := JoinSignalServing(renderMaster, "render-master", []string{"render"}); err != nil {
		t.Fatal(err)
	}
	collatzMaster := dial()
	if err := JoinSignalServing(collatzMaster, "collatz-master", []string{"collatz"}); err != nil {
		t.Fatal(err)
	}

	vol := dial()
	if err := JoinSignal(vol, "device"); err != nil {
		t.Fatal(err)
	}
	// Anonymous offer from a volunteer that serves only collatz: the
	// relay must pick the collatz master, not round-robin onto render.
	if err := vol.Send(&proto.Message{Type: proto.TypeOffer, Functions: []string{"collatz"}}); err != nil {
		t.Fatal(err)
	}
	m, err := collatzMaster.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeOffer || m.Peer != "device" {
		t.Fatalf("assigned offer = %+v", m)
	}

	// A wildcard volunteer is assigned round-robin to some master.
	vol2 := dial()
	if err := JoinSignal(vol2, "device-2"); err != nil {
		t.Fatal(err)
	}
	if err := vol2.Send(&proto.Message{Type: proto.TypeOffer, Functions: []string{"*"}}); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 2)
	go func() {
		if m, err := renderMaster.Recv(); err == nil && m.Type == proto.TypeOffer {
			got <- "render-master"
		}
	}()
	go func() {
		if m, err := collatzMaster.Recv(); err == nil && m.Type == proto.TypeOffer {
			got <- "collatz-master"
		}
	}()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("wildcard offer was never assigned to a master")
	}
}

// TestSignalServerNoPoolRejectsAnonymousOffer: without pool mode an
// empty destination stays an error, the pre-pool behavior.
func TestSignalServerNoPoolRejectsAnonymousOffer(t *testing.T) {
	ln := netsim.NewListener("signal-nopool", netsim.Loopback)
	srv := NewSignalServer()
	go srv.Serve(ln, Config{HeartbeatInterval: -1})
	defer srv.Close()

	c, _, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	vol := NewWSock(c, Config{HeartbeatInterval: -1})
	if err := JoinSignal(vol, "device"); err != nil {
		t.Fatal(err)
	}
	if err := vol.Send(&proto.Message{Type: proto.TypeOffer}); err != nil {
		t.Fatal(err)
	}
	m, err := vol.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.TypeError {
		t.Fatalf("reply = %+v, want error", m)
	}
}
