package pando_test

// End-to-end integration tests of the full deployment story over real
// localhost TCP: the HTTP invitation bootstrap (paper §2.1.2), the CLI
// Unix pipeline (Figure 3), sustained churn, and a crash-recovery rejoin.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	pando "pando"
	"pando/internal/netsim"
	"pando/internal/transport"
	"pando/internal/worker"
)

var integSeq atomic.Int64

func integName(p string) string { return fmt.Sprintf("%s-%d", p, integSeq.Add(1)) }

// TestIntegrationURLBootstrap walks the paper's full §2.1.2 deployment:
// the master prints a URL; the volunteer "opens" it, receives the
// invitation, joins over the advertised transport, and computes.
func TestIntegrationURLBootstrap(t *testing.T) {
	name := integName("square")
	pool := pando.NewPool(
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 50 * time.Millisecond}))
	defer pool.Close()
	p := pando.Map(pool, name, func(x int) (int, error) { return x * x, nil }, pando.WithoutRegistry())
	defer p.Close()

	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dataLn.Close()
	go pool.ServeWS(dataLn)

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := pool.ServeHTTPInfo(httpLn, pando.Invitation{
		Func:      name,
		Transport: "ws",
		DataAddr:  dataLn.Addr().String(),
	})
	defer srv.Close()
	url := "http://" + httpLn.Addr().String() + "/"

	v := &worker.Volunteer{
		Name:       "browser-tab",
		Handler:    pando.Handler(func(x int) (int, error) { return x * x, nil }),
		Channel:    transport.Config{HeartbeatInterval: 50 * time.Millisecond},
		CrashAfter: -1,
	}
	go v.JoinURL(url, transport.TCPDialer(5*time.Second))

	inputs := make([]int, 15)
	for i := range inputs {
		inputs[i] = i + 1
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 {
		t.Fatalf("got %d results, want 15", len(got))
	}
	for i, r := range got {
		if r != (i+1)*(i+1) {
			t.Fatalf("got[%d] = %d", i, r)
		}
	}
}

// TestIntegrationChurn keeps a stream alive under constant volunteer
// churn: devices join, process a handful of items, and crash, over and
// over, while one stable device guarantees liveness.
func TestIntegrationChurn(t *testing.T) {
	p := pando.New(integName("churn"), func(v int) (int, error) { return v + 1000, nil },
		pando.WithBatch(2),
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}),
	)
	defer p.Close()

	p.AddSimulatedWorkers(1, "stable", netsim.LAN, 0, -1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
				i++
				p.AddWorker(fmt.Sprintf("churner-%d", i), netsim.LAN, time.Millisecond, 3)
			}
		}
	}()

	inputs := make([]int, 300)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("got %d results, want 300", len(got))
	}
	for i, v := range got {
		if v != i+1000 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	// Churners actually participated.
	churned := 0
	for _, w := range p.Stats() {
		if strings.HasPrefix(w.Name, "churner-") && w.Items > 0 {
			churned++
		}
	}
	if churned == 0 {
		t.Fatal("no churner processed anything; churn was not exercised")
	}
}

// TestIntegrationCrashRecoveryRejoin exercises the crash-recovery mode
// the paper's §2.3 footnote describes: a device that crashed may recover
// and try participating again. The rejoined device is admitted under the
// same name and its accounting continues.
func TestIntegrationCrashRecoveryRejoin(t *testing.T) {
	p := pando.New(integName("rejoin"), func(v int) (int, error) { return -v, nil },
		pando.WithBatch(2),
		pando.WithChannelConfig(pando.ChannelConfig{HeartbeatInterval: 20 * time.Millisecond}),
	)
	defer p.Close()

	// The device crashes after 5 items...
	p.AddWorker("lazarus", netsim.LAN, time.Millisecond, 5)
	// ...and rejoins shortly after (a page reload), this time reliable.
	go func() {
		time.Sleep(80 * time.Millisecond)
		p.AddWorker("lazarus", netsim.LAN, time.Millisecond, -1)
	}()

	inputs := make([]int, 60)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := p.ProcessSlice(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("got %d results, want 60", len(got))
	}
	var lazarus pando.WorkerStats
	for _, w := range p.Stats() {
		if w.Name == "lazarus" {
			lazarus = w
		}
	}
	if lazarus.Items != 60 {
		t.Fatalf("lazarus accounted %d items across both lives, want 60", lazarus.Items)
	}
}

// TestIntegrationCLI builds the real binaries and runs the paper's
// Figure 3 pipeline over localhost TCP: inputs on stdin, a remote
// volunteer process joining by URL, ordered outputs on stdout.
func TestIntegrationCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/pando", "./cmd/volunteer")
	build.Dir = mustModuleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	port := freePort(t)
	cmd := exec.Command(filepath.Join(bin, "pando"), "collatz", "--stdin",
		"--port", strconv.Itoa(port))
	cmd.Dir = mustModuleRoot(t)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Wait for the master's HTTP endpoint, then join a volunteer process.
	url := fmt.Sprintf("http://127.0.0.1:%d/", port)
	waitForHTTP(t, url, 10*time.Second)
	vol := exec.Command(filepath.Join(bin, "volunteer"), "--url", url, "--name", "cli-device")
	vol.Stderr = os.Stderr
	if err := vol.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		vol.Process.Kill()
		vol.Wait()
	}()

	// Feed the inputs of the Collatz pipeline and read ordered results.
	go func() {
		for i := 1; i <= 10; i++ {
			fmt.Fprintln(stdin, i)
		}
		stdin.Close()
	}()
	wantSteps := []int{0, 1, 7, 2, 5, 8, 16, 3, 19, 6} // steps for 1..10
	sc := bufio.NewScanner(stdout)
	for i := 0; i < 10; i++ {
		if !sc.Scan() {
			t.Fatalf("stdout ended after %d lines: %v", i, sc.Err())
		}
		line := sc.Text()
		var steps int
		// Output is the JSON CollatzResult; extract the steps field.
		if idx := strings.Index(line, `"steps":`); idx >= 0 {
			rest := line[idx+len(`"steps":`):]
			end := strings.IndexAny(rest, ",}")
			steps, err = strconv.Atoi(strings.TrimSpace(rest[:end]))
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		} else {
			t.Fatalf("unexpected output line %q", line)
		}
		if steps != wantSteps[i] {
			t.Fatalf("line %d: steps = %d, want %d (ordered)", i, steps, wantSteps[i])
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pando exited: %v", err)
	}
}

// --- helpers ---

func mustModuleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

func waitForHTTP(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", strings.TrimPrefix(strings.TrimSuffix(url, "/"), "http://"), 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never came up", url)
}

// TestIntegrationCLIPublicServer runs the complete WAN story of the paper
// with the three real binaries over localhost TCP: pando-server (the
// public signalling relay), pando --public (the master registering on
// it), and volunteer --via (a device bootstrapping a WebRTC-like direct
// connection through the relay).
func TestIntegrationCLIPublicServer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/pando", "./cmd/volunteer", "./cmd/pando-server")
	build.Dir = mustModuleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// Public signalling server.
	signalPort := freePort(t)
	server := exec.Command(filepath.Join(bin, "pando-server"),
		"--port", strconv.Itoa(signalPort))
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()
	signalAddr := fmt.Sprintf("127.0.0.1:%d", signalPort)
	waitForHTTP(t, "http://"+signalAddr+"/", 10*time.Second) // TCP reachability probe

	// Master registered on the public server.
	masterPort := freePort(t)
	masterID := fmt.Sprintf("master-%d", integSeq.Add(1))
	cmd := exec.Command(filepath.Join(bin, "pando"), "sl-test", "--stdin",
		"--port", strconv.Itoa(masterPort),
		"--public", signalAddr, "--id", masterID)
	cmd.Dir = mustModuleRoot(t)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	waitForHTTP(t, fmt.Sprintf("http://127.0.0.1:%d/", masterPort), 10*time.Second)

	// Volunteer joining via the public server (never touches the
	// master's LAN URL).
	vol := exec.Command(filepath.Join(bin, "volunteer"),
		"--via", signalAddr, "--master", masterID, "--name", "wan-device")
	vol.Stderr = os.Stderr
	if err := vol.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		vol.Process.Kill()
		vol.Wait()
	}()

	// Feed StreamLender-test seeds; expect one JSON report per seed with
	// no violations.
	go func() {
		for i := 1; i <= 5; i++ {
			fmt.Fprintln(stdin, i)
		}
		stdin.Close()
	}()
	sc := bufio.NewScanner(stdout)
	for i := 0; i < 5; i++ {
		if !sc.Scan() {
			t.Fatalf("stdout ended after %d lines: %v", i, sc.Err())
		}
		line := sc.Text()
		if !strings.Contains(line, `"seed":`) {
			t.Fatalf("unexpected output %q", line)
		}
		if strings.Contains(line, `"violations"`) {
			t.Fatalf("SL test found violations: %s", line)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pando exited: %v", err)
	}
}

// TestIntegrationFullUnixPipeline runs the paper's Figure 3 as an actual
// shell pipeline with the real binaries:
//
//	pando-tools generate-angles | pando render --stdin --local | pando-tools gif-encode
func TestIntegrationFullUnixPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/pando", "./cmd/pando-tools")
	build.Dir = mustModuleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	gifPath := filepath.Join(t.TempDir(), "anim.gif")
	port := freePort(t)
	pipeline := fmt.Sprintf(
		"%s generate-angles 4 | %s render --stdin --local 2 --port %d | %s gif-encode -o %s",
		filepath.Join(bin, "pando-tools"),
		filepath.Join(bin, "pando"), port,
		filepath.Join(bin, "pando-tools"), gifPath,
	)
	cmd := exec.Command("sh", "-c", pipeline)
	cmd.Dir = mustModuleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("pipeline: %v\n%s", err, out)
	}
	data, err := os.ReadFile(gifPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || string(data[:4]) != "GIF8" {
		t.Fatalf("pipeline did not produce a GIF (%d bytes)", len(data))
	}
}
