package main

import (
	"bufio"
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
	"syscall"
	"time"

	"homeguard/internal/obs"
)

// readyTimeout bounds how long a server may take to report readiness;
// a boot that replays a large WAL is the slowest case.
const readyTimeout = 90 * time.Second

// readyLine is the log line both homeguardd and homeguardgw print once
// their RPC listener is bound. homeguardd binds it only after recovery
// and readiness, so the line is a blocking readiness probe: no polling.
const readyLine = "rpc edge listening on"

// server is one homeguardd or homeguardgw child process.
type server struct {
	name     string
	cmd      *exec.Cmd
	httpAddr string
	rpcAddr  string
	ready    chan struct{}
	logDone  chan struct{}
	tail     []string // last stderr lines, for error reports
}

// freeAddrs reserves two distinct loopback ports by binding both at once
// and letting them go; binding them one after the other could hand out
// the same port twice.
func freeAddrs() (string, string, error) {
	var addrs [2]string
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", "", err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs[0], addrs[1], nil
}

// startServer runs bin with the given flags plus fresh -addr and
// -rpc-addr loopback ports and blocks until it reports readiness and its
// HTTP edge accepts connections.
func startServer(name, bin string, args ...string) (*server, error) {
	httpAddr, rpcAddr, err := freeAddrs()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", httpAddr, "-rpc-addr", rpcAddr}, args...)
	s := &server{
		name:     name,
		cmd:      exec.Command(bin, args...),
		httpAddr: httpAddr,
		rpcAddr:  rpcAddr,
		ready:    make(chan struct{}),
		logDone:  make(chan struct{}),
	}
	// Pdeathsig kills the server if the benchmark dies first, so an
	// interrupted run leaves no process behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go s.readLog(stderr)
	select {
	case <-s.ready:
		if err = s.waitHTTP(); err == nil {
			return s, nil
		}
	case <-s.logDone:
		err = fmt.Errorf("%s exited before it was ready:\n%s", name, strings.Join(s.tail, "\n"))
	case <-time.After(readyTimeout):
		err = fmt.Errorf("%s not ready after %v", name, readyTimeout)
	}
	s.kill()
	return nil, err
}

// waitHTTP blocks until the HTTP edge accepts a connection. Both servers
// bind it on a goroutine of their own and print no line once it is
// bound, so the readiness line can come first; a refused connect returns
// at once and is retried until the edge is bound or the server exits.
func (s *server) waitHTTP() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		c, err := net.DialTimeout("tcp", s.httpAddr, time.Second)
		if err == nil {
			return c.Close()
		}
		select {
		case <-s.logDone:
			return fmt.Errorf("%s exited before its HTTP edge accepted connections:\n%s", s.name, strings.Join(s.tail, "\n"))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s HTTP edge not accepting after %v: %w", s.name, readyTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// readLog drains the server's stderr until it closes, signalling ready
// at the readiness line and keeping the last lines for error reports;
// they are read only once logDone is closed.
func (s *server) readLog(r io.Reader) {
	defer close(s.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	seen := false
	for sc.Scan() {
		line := sc.Text()
		if !seen && strings.Contains(line, readyLine) {
			seen = true
			close(s.ready)
			continue
		}
		if len(s.tail) == 20 {
			s.tail = s.tail[1:]
		}
		s.tail = append(s.tail, line)
	}
}

// kill sends SIGKILL and waits until the process and its log reader
// have ended. Safe to call more than once.
func (s *server) kill() {
	if s == nil || s.cmd.ProcessState != nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only if the process already exited; Wait reaps it either way
	<-s.logDone
	_ = s.cmd.Wait() // a killed process always reports "signal: killed"
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads utime+stime of a process from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after the last ')'.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metricsScrape is one parse of a server's Prometheus exposition,
// summed per metric name over label sets.
type metricsScrape map[string]float64

// scrape reads /metrics?format=prometheus from a server's HTTP edge.
func scrape(hc *http.Client, s *server) (metricsScrape, error) {
	resp, err := hc.Get("http://" + s.httpAddr + "/metrics?format=prometheus")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", s.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", s.name, resp.StatusCode)
	}
	samples, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", s.name, err)
	}
	m := metricsScrape{}
	for _, smp := range samples {
		m[smp.Name] += smp.Value
	}
	return m, nil
}

// delta is the growth of metric name from before to after.
func delta(before, after metricsScrape, name string) float64 {
	return after[name] - before[name]
}
