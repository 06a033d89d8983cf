package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running coldd process, started with its default flags
// except the listen address (a free localhost port) and the cache
// directory.
type daemon struct {
	cmd  *exec.Cmd
	base string       // http://host:port
	ctl  *http.Client // control requests (health, stats), apart from the load

	logDone chan struct{} // closed when the stderr reader has hit EOF
	mu      sync.Mutex
	tail    []string // last stderr lines, for error reports
}

// startDaemon starts coldd and waits until /healthz answers.
func startDaemon(bin, cacheDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache", cacheDir)
	// coldd must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:     cmd,
		ctl:     &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second},
		logDone: make(chan struct{}),
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting coldd: %w", err)
	}
	addr := make(chan string, 1) // the reader sends at most once and must not block
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
					a, _, _ := strings.Cut(rest, " ")
					addr <- a
					sent = true
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		d.wait()
		return nil, fmt.Errorf("coldd exited before listening: %s", d.lastLog())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("coldd did not report its address within 30s")
	}
	for {
		resp, err := d.ctl.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("coldd not healthy within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// wait reaps the process once its stderr is drained.
func (d *daemon) wait() {
	<-d.logDone
	d.cmd.Wait() //nolint:errcheck // the exit status of a stopped daemon carries nothing
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	d.wait()
}

// stop drains coldd with SIGTERM, as a supervisor would, and kills it if
// the drain takes longer than ten seconds. It returns once the process has
// exited.
func (d *daemon) stop() {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return
	}
	select {
	case <-d.logDone:
		d.wait()
	case <-time.After(10 * time.Second):
		d.kill()
	}
	d.ctl.CloseIdleConnections()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every mainstream Linux build).
const clockTicks = 100

// cpu returns the process's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// hostCPU returns the machine's steal and total CPU ticks from /proc/stat.
// Steal is time the hypervisor gave the vCPUs to someone else: a window
// with much of it ran on a slower machine.
func hostCPU() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Requests           uint64 `json:"requests"`
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	SingleflightShared uint64 `json:"singleflight_shared"`
	QueueFull          uint64 `json:"queue_full"`
}

func (s serverStats) minus(o serverStats) serverStats {
	return serverStats{
		Requests:           s.Requests - o.Requests,
		CacheHits:          s.CacheHits - o.CacheHits,
		CacheMisses:        s.CacheMisses - o.CacheMisses,
		SingleflightShared: s.SingleflightShared - o.SingleflightShared,
		QueueFull:          s.QueueFull - o.QueueFull,
	}
}

func (d *daemon) stats() (serverStats, error) {
	var st serverStats
	resp, err := d.ctl.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// promCounters returns the unlabelled samples named in names from GET
// /metrics.
func (d *daemon) promCounters(names ...string) (map[string]float64, error) {
	resp, err := d.ctl.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics %s: %w", name, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}
