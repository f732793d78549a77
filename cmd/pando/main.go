// Command pando is the Unix interface of the tool (paper Figure 3):
//
//	./generate-angles | pando render --stdin | ./gif-encoder
//
// It reads inputs from the standard input (one value per line) or from
// command-line arguments, parallelizes the application of the named
// processing function across joining volunteer devices, and produces
// outputs on the standard output in input order. On startup it lists, on
// the standard error, the address volunteers should join — the equivalent
// of the paper's "Serving volunteer code at http://10.10.14.119:5000".
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"pando"
	"pando/internal/apps"
	"pando/internal/master"
	"pando/internal/pprofserve"
	"pando/internal/sched"
	"pando/internal/transport"
	"pando/internal/worker"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pando:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments (after the program name) and its
// standard streams.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pando", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fromStdin = fs.Bool("stdin", false, "read inputs from standard input, one per line")
		port      = fs.Int("port", 5000, "TCP port volunteers join on")
		batch     = fs.Int("batch", sched.DefaultBatch, "values in flight per volunteer (batch size)")
		local     = fs.Int("local", 0, "number of in-process workers to add (one per core)")
		public    = fs.String("public", "", "public (signalling) server address, for volunteers outside the LAN")
		masterID  = fs.String("id", "master", "peer ID on the public server")
		listFn    = fs.Bool("list", false, "list registered processing functions and exit")
		report    = fs.Bool("report", false, "print periodic per-device throughput on stderr")
		ckpt      = fs.String("checkpoint", "", "journal completed results to this file; restarting with the same flag and inputs resumes instead of redoing work")
		fsync     = fs.Duration("fsync", 0, "checkpoint fsync batching interval (0: default 100ms; negative: every record)")
		window    = fs.Int("window", 0, "bound buffered results to this many; past it input reads pause (or overflow spills, with -spill)")
		spill     = fs.String("spill", "", "with -window: page far-ahead results to this transient file instead of pausing input reads")
		pprofArg  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pando <function> [flags] [inputs...]")
		fs.PrintDefaults()
	}
	apps.RegisterAll()

	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing function name (try --list)")
	}
	if args[0] == "--list" || args[0] == "-list" {
		*listFn = true
	} else if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *listFn {
		for _, n := range worker.Registered() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	funcName := args[0]
	h, ok := worker.Lookup(funcName)
	if !ok {
		return fmt.Errorf("unknown function %q (registered: %s)",
			funcName, strings.Join(worker.Registered(), ", "))
	}
	if *pprofArg != "" {
		if err := pprofserve.Serve(*pprofArg); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "pprof at http://%s/debug/pprof/\n", *pprofArg)
	}

	opts := []pando.Option{
		pando.WithBatch(*batch),
		pando.WithCodec[json.RawMessage, json.RawMessage](rawCodec{}, rawCodec{}),
		pando.WithFsyncInterval(*fsync),
		pando.WithMemoryBound(*window, *spill),
	}
	if *ckpt != "" {
		opts = append(opts, pando.WithCheckpoint(*ckpt), pando.WithResume())
	}
	pool := pando.NewPool(opts...)
	defer pool.Close()
	// Inputs travel as the JSON strings of their lines (the paper's
	// Figure 2: cameraPos is a string the function parses), encoded once;
	// local workers apply the registered handler to those bytes.
	f := func(in json.RawMessage) (json.RawMessage, error) { return h(nil, in) }
	p := pando.Map(pool, funcName, f, opts...)
	defer p.Close()
	if j := p.Checkpoint(); j != nil && j.Recovered() > 0 {
		fmt.Fprintf(stderr, "Resuming checkpoint %s: %d results already completed "+
			"(feed the same inputs; completed ones are replayed, not recomputed)\n", *ckpt, j.Recovered())
	}

	// Data plane on :port+1, deployment URL on :port — the paper's
	// "Serving volunteer code at http://10.10.14.119:5000" (Figure 3).
	dataLn, err := net.Listen("tcp", fmt.Sprintf(":%d", *port+1))
	if err != nil {
		return fmt.Errorf("listen data: %w", err)
	}
	defer dataLn.Close()
	go pool.ServeWS(dataLn)

	httpLn, err := net.Listen("tcp", fmt.Sprintf(":%d", *port))
	if err != nil {
		return fmt.Errorf("listen http: %w", err)
	}
	defer httpLn.Close()
	srv := pool.ServeHTTPInfo(httpLn, pando.Invitation{
		Func:      funcName,
		Transport: "ws",
		DataAddr:  advertiseAddr(httpLn, *port+1),
	})
	defer srv.Close()
	fmt.Fprintf(stderr, "Serving volunteer code at http://%s\n", advertiseAddr(httpLn, *port))
	fmt.Fprintf(stderr, "Volunteers join with: volunteer --url http://%s\n", advertiseAddr(httpLn, *port))

	// Optionally register on a public server so friends outside the local
	// network can join through the WebRTC-like bootstrap (paper §2.1.2:
	// "A user can invite friends to add their devices, even if they are
	// outside the local network").
	if *public != "" {
		sc, err := net.DialTimeout("tcp", *public, 10*time.Second)
		if err != nil {
			return fmt.Errorf("dial public server: %w", err)
		}
		signal := transport.NewWSock(sc, transport.Config{})
		// Advertise the served function so a pool-mode relay can assign
		// anonymous volunteers to this master.
		if err := transport.JoinSignalServing(signal, *masterID, []string{funcName}); err != nil {
			return fmt.Errorf("join public server: %w", err)
		}
		directLn, err := net.Listen("tcp", ":0")
		if err != nil {
			return fmt.Errorf("listen direct: %w", err)
		}
		defer directLn.Close()
		answerer := transport.NewRTCAnswerer(signal, directLn, transport.Config{})
		defer answerer.Close()
		go pool.ServeRTC(answerer)
		fmt.Fprintf(stderr, "Registered on public server %s as %q\n", *public, *masterID)
		fmt.Fprintf(stderr, "Remote volunteers join with: volunteer --via %s --master %s\n", *public, *masterID)
	}

	pool.AddLocalWorkers(*local)

	if *report {
		rep := master.StartReporter(stderr, p.Stats, 2*time.Second, 10*time.Second)
		defer rep.Stop()
	}

	// Input source: stdin lines or remaining command-line arguments.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan json.RawMessage)
	go func() {
		defer close(in)
		send := func(s string) bool {
			b, _ := json.Marshal(s) // a string always marshals
			select {
			case in <- b:
				return true
			case <-ctx.Done():
				return false
			}
		}
		if !*fromStdin {
			for _, a := range fs.Args() {
				if !send(a) {
					return
				}
			}
			return
		}
		sc := bufio.NewScanner(stdin)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() && send(sc.Text()) {
		}
	}()

	outs, errc := p.Process(ctx, in)
	w := bufio.NewWriter(stdout)
	for v := range outs {
		// Results that are JSON strings are printed unquoted, so the
		// output composes with ordinary Unix tools.
		var s string
		if err := json.Unmarshal(v, &s); err == nil {
			fmt.Fprintln(w, s)
		} else {
			fmt.Fprintln(w, string(v))
		}
		if err := w.Flush(); err != nil {
			cancel()
			return err
		}
	}
	return <-errc
}

// advertiseAddr picks a non-loopback address to print, as the paper does.
func advertiseAddr(ln net.Listener, port int) string {
	addrs, err := net.InterfaceAddrs()
	if err == nil {
		for _, a := range addrs {
			if ip, ok := a.(*net.IPNet); ok && !ip.IP.IsLoopback() && ip.IP.To4() != nil {
				return fmt.Sprintf("%s:%d", ip.IP, port)
			}
		}
	}
	return ln.Addr().String()
}

// rawCodec passes inputs and results through untouched.
type rawCodec struct{}

func (rawCodec) Encode(b json.RawMessage) ([]byte, error) { return b, nil }
func (rawCodec) Decode(b []byte) (json.RawMessage, error) {
	return json.RawMessage(append([]byte(nil), b...)), nil
}
