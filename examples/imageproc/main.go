// Imageproc: the paper's image-processing application in two variants —
// the http version (§4.1), where workers fetch tiles from an HTTP server
// and post blurred results back synchronously, and the stubborn p2p
// version (§4.3), where the result data travels over a failure-prone
// DAT/WebTorrent-like store and inputs are resubmitted until their data
// is actually downloadable.
//
//	go run ./examples/imageproc [-tiles 16]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	pando "pando"
	"pando/internal/apps"
	"pando/internal/landsat"
	"pando/internal/pullstream"
)

func main() {
	var tiles = flag.Int("tiles", 16, "tiles to process")
	flag.Parse()

	// --- Variant 1: http distribution (synchronous transfers). ---
	srv := landsat.NewServer(96, 96)
	base, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	p := pando.New("example-"+apps.ImgProcFunc, apps.BlurTileHTTP)
	p.AddLocalWorkers(4)
	jobs := apps.ImgProcJobs(*tiles, base, 96, 96, 3)
	t0 := time.Now()
	done, err := p.ProcessSlice(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("http variant: blurred %d tiles in %v; server stored %d results\n",
		len(done), time.Since(t0).Round(time.Millisecond), srv.ResultCount())
	p.Close()

	// Write one before/after pair as PNGs for inspection.
	if blurred, ok := srv.Result(0); ok {
		writePNG("tile0-original.png", landsat.GenerateTile(0, 96, 96))
		writePNG("tile0-blurred.png", blurred)
		fmt.Println("wrote tile0-original.png and tile0-blurred.png")
	}

	// --- Variant 2: stubborn p2p distribution (60%% of shares fail). ---
	store := landsat.NewP2PStore(0.4, 0, time.Now().UnixNano()%1000)
	blur := apps.NewP2PBlur(store)
	p2 := pando.New("example-"+apps.ImgBlurP2P, blur)
	defer p2.Close()
	p2.AddLocalWorkers(4)

	jobOf := func(id int) apps.TileJob {
		return apps.TileJob{ID: id, Width: 96, Height: 96, Radius: 3}
	}
	var p2pJobs []apps.TileJob
	for i := 0; i < *tiles; i++ {
		p2pJobs = append(p2pJobs, jobOf(i))
	}

	// Wrap the distributed map in the stubborn feedback loop.
	distributed := func(src pullstream.Source[apps.TileJob]) pullstream.Source[apps.TileDone] {
		in, errc := pullstream.ToChan(context.Background(), src)
		_ = errc
		out, _ := p2.Process(context.Background(), in)
		return pullstream.FromChan(out, nil)
	}
	th := apps.StubbornP2P(distributed, store, jobOf)

	t1 := time.Now()
	got, err := pullstream.Collect(th(pullstream.Values(p2pJobs...)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p2p variant : %d tiles confirmed downloadable in %v (despite failing shares)\n",
		len(got), time.Since(t1).Round(time.Millisecond))
	for _, d := range got {
		if _, err := store.Download(d.ID); err != nil {
			log.Fatalf("tile %d output but not downloadable: %v", d.ID, err)
		}
	}
	fmt.Println("every output tile verified present in the p2p store")
}

func writePNG(path string, t landsat.Tile) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("writePNG %s: %v", path, err)
		return
	}
	defer f.Close()
	if err := landsat.EncodePNG(f, t); err != nil {
		log.Printf("writePNG %s: %v", path, err)
	}
}
