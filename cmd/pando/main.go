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
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"pando/internal/apps"
	"pando/internal/journal"
	"pando/internal/master"
	"pando/internal/netsim"
	"pando/internal/pprofserve"
	"pando/internal/pullstream"
	"pando/internal/transport"
	"pando/internal/worker"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pando:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("pando", flag.ContinueOnError)
	var (
		stdin    = fs.Bool("stdin", false, "read inputs from standard input, one per line")
		port     = fs.Int("port", 5000, "TCP port volunteers join on")
		batch    = fs.Int("batch", master.DefaultBatch, "values in flight per volunteer (batch size)")
		local    = fs.Int("local", 0, "number of in-process workers to add (one per core)")
		public   = fs.String("public", "", "public (signalling) server address, for volunteers outside the LAN")
		masterID = fs.String("id", "master", "peer ID on the public server")
		listFn   = fs.Bool("list", false, "list registered processing functions and exit")
		report   = fs.Bool("report", false, "print periodic per-device throughput on stderr")
		ckpt     = fs.String("checkpoint", "", "journal completed results to this file; restarting with the same flag and inputs resumes instead of redoing work")
		fsync    = fs.Duration("fsync", 0, "checkpoint fsync batching interval (0: default 100ms; negative: every record)")
		window   = fs.Int("window", 0, "bound buffered results to this many; past it input reads pause (or overflow spills, with -spill)")
		spill    = fs.String("spill", "", "with -window: page far-ahead results to this transient file instead of pausing input reads")
		pprofArg = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pando <function> [flags] [inputs...]")
		fs.PrintDefaults()
	}
	apps.RegisterAll()

	args := os.Args[1:]
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing function name (try --list)")
	}
	if args[0] == "--list" || args[0] == "-list" {
		for _, n := range worker.Registered() {
			fmt.Println(n)
		}
		return nil
	}
	funcName := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *listFn {
		for _, n := range worker.Registered() {
			fmt.Println(n)
		}
		return nil
	}
	if _, ok := worker.Lookup(funcName); !ok {
		return fmt.Errorf("unknown function %q (registered: %s)",
			funcName, strings.Join(worker.Registered(), ", "))
	}

	cfg := master.Config{
		FuncName: funcName,
		Batch:    *batch,
		Ordered:  true,
	}
	if *ckpt != "" {
		j, err := journal.Open(*ckpt, journal.Options{SyncInterval: *fsync})
		if err != nil {
			return fmt.Errorf("open checkpoint: %w", err)
		}
		defer j.Close()
		if n := j.Recovered(); n > 0 {
			fmt.Fprintf(os.Stderr, "Resuming checkpoint %s: %d results already completed "+
				"(feed the same inputs; completed ones are replayed, not recomputed)\n", *ckpt, n)
		}
		cfg.Journal = j
	}
	cfg.SpillHighWater = *window
	if *spill != "" && *window > 0 {
		s, err := journal.OpenSpill(*spill)
		if err != nil {
			return fmt.Errorf("open spill: %w", err)
		}
		defer s.Close()
		cfg.Spill = s
	}
	if *pprofArg != "" {
		if err := pprofserve.Serve(*pprofArg); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pprof at http://%s/debug/pprof/\n", *pprofArg)
	}
	m := master.New[string, json.RawMessage](cfg, stringCodec{}, rawCodec{})

	// Data plane on :port+1, deployment URL on :port — the paper's
	// "Serving volunteer code at http://10.10.14.119:5000" (Figure 3).
	dataLn, err := net.Listen("tcp", fmt.Sprintf(":%d", *port+1))
	if err != nil {
		return fmt.Errorf("listen data: %w", err)
	}
	defer dataLn.Close()
	go m.ServeWS(dataLn)

	httpLn, err := net.Listen("tcp", fmt.Sprintf(":%d", *port))
	if err != nil {
		return fmt.Errorf("listen http: %w", err)
	}
	defer httpLn.Close()
	srv := m.ServeHTTPInfo(httpLn, master.Invitation{
		Transport: "ws",
		DataAddr:  advertiseAddr(httpLn, *port+1),
	})
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "Serving volunteer code at http://%s\n", advertiseAddr(httpLn, *port))
	fmt.Fprintf(os.Stderr, "Volunteers join with: volunteer --url http://%s\n", advertiseAddr(httpLn, *port))

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
		go m.ServeRTC(answerer)
		fmt.Fprintf(os.Stderr, "Registered on public server %s as %q\n", *public, *masterID)
		fmt.Fprintf(os.Stderr, "Remote volunteers join with: volunteer --via %s --master %s\n", *public, *masterID)
	}

	for i := 0; i < *local; i++ {
		addLocalWorker(m, funcName)
	}

	if *report {
		rep := m.StartReporter(os.Stderr, 2*time.Second, 10*time.Second)
		defer rep.Stop()
	}

	// Input source: stdin lines or remaining command-line arguments.
	var src pullstream.Source[string]
	if *stdin {
		lines := make(chan string)
		go func() {
			defer close(lines)
			sc := bufio.NewScanner(os.Stdin)
			sc.Buffer(make([]byte, 1<<20), 16<<20)
			for sc.Scan() {
				lines <- sc.Text()
			}
		}()
		src = pullstream.FromChan(lines, nil)
	} else {
		src = pullstream.Values(fs.Args()...)
	}

	out := m.Bind(src)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	return pullstream.Drain(out, func(v json.RawMessage) error {
		// Results that are JSON strings are printed unquoted, so the
		// output composes with ordinary Unix tools.
		var s string
		if err := json.Unmarshal(v, &s); err == nil {
			fmt.Fprintln(w, s)
		} else {
			fmt.Fprintln(w, string(v))
		}
		return w.Flush()
	})
}

// addLocalWorker attaches one in-process volunteer.
func addLocalWorker[I, O any](m *master.Master[I, O], funcName string) {
	h, _ := worker.Lookup(funcName)
	v := &worker.Volunteer{Name: "local", Handler: h, CrashAfter: -1}
	pipe := netsim.NewPipe(netsim.Loopback)
	go v.JoinWS(pipe.A)
	go m.Admit(transport.NewWSock(pipe.B, transport.Config{}))
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

// stringCodec sends inputs as JSON strings, matching the paper's
// convention that inputs arrive as strings (Figure 2: cameraPos is a
// string the function parses).
type stringCodec struct{}

func (stringCodec) Encode(s string) ([]byte, error) { return json.Marshal(s) }
func (stringCodec) Decode(b []byte) (string, error) {
	var s string
	err := json.Unmarshal(b, &s)
	return s, err
}

// rawCodec passes results through untouched.
type rawCodec struct{}

func (rawCodec) Encode(b json.RawMessage) ([]byte, error) { return b, nil }
func (rawCodec) Decode(b []byte) (json.RawMessage, error) {
	return json.RawMessage(append([]byte(nil), b...)), nil
}
