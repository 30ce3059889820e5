package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything the benchmark writes: the served binary, WAL
// directories while a child runs, and the span files.
const outDir = "bench/out"

// buildServer compiles cmd/dsks-serve from the checkout's source.
func buildServer() (string, error) {
	if _, err := os.Stat("cmd/dsks-serve"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "dsks-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dsks-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dsks-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running dsks-serve process.
type child struct {
	cmd     *exec.Cmd
	addr    string
	walDir  string
	log     bytes.Buffer
	exited  chan struct{} // closed once Wait returned
	err     error         // Wait's result, valid after exited
	boot    time.Duration // exec → first /healthz 200
	healthy time.Time     // when that 200 arrived
}

// signalGrace is how long after its first healthy answer a child is left
// alone before SIGTERM. dsks-serve installs its signal handler only after
// the listener is bound and the banner printed, so a SIGTERM in that
// window kills it instead of draining it; the set-up boots, stopped as
// soon as they are healthy, would hit the window.
const signalGrace = 100 * time.Millisecond

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// bootChild starts the served binary for w and waits until /healthz
// answers 200. A child that exits first or stays unhealthy for a minute
// is an error (and is not left running). Cancelling ctx kills the child.
func bootChild(ctx context.Context, bin string, w workload) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{addr: addr, exited: make(chan struct{})}
	flags := append(w.serverFlags(), "-addr", addr)
	if w.wal {
		c.walDir, err = os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return nil, err
		}
		flags = append(flags, "-wal", c.walDir)
	}
	// Tied to ctx, so an interrupted benchmark leaves no server behind.
	c.cmd = exec.CommandContext(ctx, bin, flags...)
	c.cmd.Stdout, c.cmd.Stderr = &c.log, &c.log
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		c.cleanup()
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.After(time.Minute)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.exited:
			c.cleanup()
			return nil, fmt.Errorf("dsks-serve exited before turning healthy: %v\n%s", c.err, c.log.String())
		case <-deadline:
			c.kill()
			return nil, fmt.Errorf("dsks-serve not healthy after a minute\n%s", c.log.String())
		case <-tick.C:
			resp, err := probe.Get("http://" + addr + "/healthz")
			if err != nil {
				continue
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.healthy = time.Now()
				c.boot = c.healthy.Sub(start)
				return c, nil
			}
		}
	}
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM and requires a clean drain: exit code 0 within 15 s.
func (c *child) stop() error {
	defer c.cleanup()
	if !c.alive() {
		return fmt.Errorf("dsks-serve died before it was stopped: %v\n%s", c.err, c.log.String())
	}
	time.Sleep(time.Until(c.healthy.Add(signalGrace)))
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	select {
	case <-c.exited:
	case <-time.After(15 * time.Second):
		c.kill()
		return errors.New("dsks-serve did not exit within 15s of SIGTERM")
	}
	if c.err != nil {
		return fmt.Errorf("dsks-serve exited uncleanly on SIGTERM: %v\n%s", c.err, c.log.String())
	}
	return nil
}

// kill ends the process at once and waits for it.
func (c *child) kill() {
	if c.alive() {
		_ = c.cmd.Process.Kill() // it may have exited since alive looked
	}
	<-c.exited
	c.cleanup()
}

func (c *child) cleanup() {
	if c.walDir != "" {
		_ = os.RemoveAll(c.walDir) // a leftover directory is ignored by git and harmless
		c.walDir = ""
	}
}

// cpu reads the process's user+system CPU time from /proc/<pid>/stat.
func (c *child) cpu() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis. utime and stime are fields 14
	// and 15 of the line, in clock ticks (USER_HZ, 100 on Linux).
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", s)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// rssPeakMB reads the process's peak resident set from /proc/<pid>/status.
func (c *child) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
