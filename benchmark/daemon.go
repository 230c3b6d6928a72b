package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// repoRoot walks up from the working directory to the module root, so the
// harness works both from the checkout root (`go run ./benchmark`) and from
// its own directory (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/cisgraphd from the checkout's own source into dir.
// The go tool skips the link when the binary is already up to date.
func buildDaemon(root, dir string) (string, error) {
	out := filepath.Join(dir, "cisgraphd")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/cisgraphd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cisgraphd: %v\n%s", err, b)
	}
	return out, nil
}

// freeAddr reserves a loopback port by binding and releasing it; cisgraphd
// takes explicit addresses only.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// daemon is one cisgraphd child process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string // host:port
	binAddr  string
	logPath  string
	exited   chan struct{} // closed once Wait has returned
}

func (d *daemon) url() string { return "http://" + d.httpAddr }
func (d *daemon) pid() int    { return d.cmd.Process.Pid }

// startDaemon launches bin with args plus -addr and -binary-addr (freshly
// reserved when empty) on the daemons' CPUs, logging to logPath. extraEnv
// (e.g. GOMAXPROCS=1) is appended to the inherited environment.
func startDaemon(iso *isolation, bin, logPath, httpAddr, binAddr string, args []string, extraEnv ...string) (*daemon, error) {
	var err error
	if httpAddr == "" {
		if httpAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		if binAddr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	logf, err := os.OpenFile(logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{httpAddr: httpAddr, binAddr: binAddr, logPath: logPath, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", httpAddr, "-binary-addr", binAddr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.Env = append(os.Environ(), extraEnv...)
	if err := iso.startOnDaemonCPUs(d.cmd.Start); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // exit status is irrelevant: children are always signalled
		close(d.exited)
	}()
	return d, nil
}

// stop SIGKILLs the child — the crash the restore measurements model — and
// waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only when already gone
	<-d.exited
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// healthz is the subset of /healthz the harness reads.
type healthz struct {
	Status   string `json:"status"`
	Batches  uint64 `json:"batches"`
	Pending  int    `json:"pending"`
	Quiesced bool   `json:"quiesced"`
	Queries  int    `json:"queries"`
	Repl     *struct {
		LagBatches uint64 `json:"lag_batches"`
	} `json:"repl"`
	ApplyLatency []struct {
		Count int     `json:"count"`
		P99Ms float64 `json:"p99_ms"`
	} `json:"apply_latency"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitHealthy polls /healthz until the daemon serves status ok with all
// wantQueries registered (registration is synchronous with convergence), or
// the child dies, or the deadline passes.
func (d *daemon) waitHealthy(c *http.Client, wantQueries int, timeout time.Duration) (healthz, error) {
	deadline := time.Now().Add(timeout)
	var h healthz
	for {
		err := getJSON(c, d.url()+"/healthz", &h)
		if err == nil && h.Status == "ok" && h.Queries >= wantQueries {
			return h, nil
		}
		select {
		case <-d.exited:
			return h, fmt.Errorf("cisgraphd exited during start-up:\n%s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("cisgraphd not healthy after %v (last error %v, status %q, queries %d):\n%s",
				timeout, err, h.Status, h.Queries, d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitQuiesced polls until every accepted update is reflected in the served
// answers and (when minBatches > 0) the stream position has reached it.
func (d *daemon) waitQuiesced(c *http.Client, minBatches uint64, timeout time.Duration) (healthz, error) {
	deadline := time.Now().Add(timeout)
	var h healthz
	for {
		err := getJSON(c, d.url()+"/healthz", &h)
		if err == nil && h.Quiesced && h.Pending == 0 && h.Batches >= minBatches {
			return h, nil
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("daemon not quiesced at position %d after %v (err %v, at %d, pending %d)",
				minBatches, timeout, err, h.Batches, h.Pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is the kernel's USER_HZ; Linux fixes the /proc ABI at 100.
const clockTick = 100

// procCPU returns the process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after ")".
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat for pid %d", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14: utime
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat for pid %d", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS returns VmHWM (peak resident set) in MiB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found for pid %d", pid)
}

// scrapeMetrics reads /metrics into name → value. cisgraph_counter lines are
// keyed by their name label; plain gauges by their metric name.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		if i := strings.Index(key, `name="`); i >= 0 {
			key = key[i+6:]
			key = key[:strings.IndexByte(key, '"')]
		} else if i := strings.IndexByte(key, '{'); i >= 0 {
			key = key[:i]
		}
		out[key] = v
	}
	return out, sc.Err()
}
