// WAN: the paper's §5.4 deployment story in one process — a master
// registers on a public signalling server, volunteers across a simulated
// wide-area network bootstrap WebRTC-like direct connections through it
// (the signalling connection closing once established), and the
// computation proceeds with batching hiding the WAN latency.
//
//	go run ./examples/wan [-volunteers 5] [-inputs 200]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"pando"
	"pando/internal/netsim"
	"pando/internal/transport"
	"pando/internal/worker"
)

func main() {
	var (
		nVol   = flag.Int("volunteers", 5, "volunteers joining over the WAN")
		inputs = flag.Int("inputs", 200, "work items to process")
	)
	flag.Parse()

	cfg := transport.Config{HeartbeatInterval: 100 * time.Millisecond}

	// The public server: a small relay on the open internet (here, behind
	// a simulated WAN link).
	signalLn := netsim.NewListener("public-server", netsim.WAN)
	defer signalLn.Close()
	relay := transport.NewSignalServer()
	go relay.Serve(signalLn, cfg)
	defer relay.Close()

	// The master joins the relay and answers offers with its direct
	// address; it uses the paper's WAN batch size of 4.
	square := func(v int) (int, error) { return v * v, nil }
	p := pando.New("square", square, pando.WithBatch(4), pando.WithChannelConfig(cfg))
	defer p.Close()
	directLn := netsim.NewListener("master-direct", netsim.WAN)
	defer directLn.Close()
	msc, _, err := signalLn.Dial()
	if err != nil {
		log.Fatal(err)
	}
	masterSignal := transport.NewWSock(msc, cfg)
	if err := transport.JoinSignal(masterSignal, "master"); err != nil {
		log.Fatal(err)
	}
	answerer := transport.NewRTCAnswerer(masterSignal, directLn, cfg)
	defer answerer.Close()
	go p.ServeRTC(answerer)
	fmt.Println("master registered on the public server as \"master\"")

	// Volunteers around Europe: each joins the relay, offers, and ends up
	// on a direct channel to the master.
	dial := func(addr string) (net.Conn, error) {
		c, _, err := directLn.Dial()
		return c, err
	}
	for i := 0; i < *nVol; i++ {
		vsc, _, err := signalLn.Dial()
		if err != nil {
			log.Fatal(err)
		}
		signal := transport.NewWSock(vsc, cfg)
		v := &worker.Volunteer{
			Name:       fmt.Sprintf("node-%d", i+1),
			Handler:    pando.Handler(square),
			Channel:    cfg,
			CrashAfter: -1,
			Delay:      time.Duration(1+i) * time.Millisecond, // heterogeneous
		}
		id := fmt.Sprintf("node-%d", i+1)
		go v.JoinRTC(signal, id, "master", dial)
	}

	in := make([]int, *inputs)
	for i := range in {
		in[i] = i + 1
	}
	start := time.Now()
	got, err := p.ProcessSlice(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	for i, v := range got {
		if v != (i+1)*(i+1) {
			log.Fatalf("got[%d] = %d: ordering violated", i, v)
		}
	}
	fmt.Printf("processed %d inputs over the WAN in %v (%.0f items/s), outputs in order\n",
		len(got), elapsed.Round(time.Millisecond), float64(len(got))/elapsed.Seconds())
	for _, w := range p.Stats() {
		fmt.Printf("  %-8s %4d items\n", w.Name, w.Items)
	}
}
