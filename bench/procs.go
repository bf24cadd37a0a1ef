package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpm/client"
)

// proc is one gpserve child process with its log.
type proc struct {
	name    string
	url     string
	addr    string
	args    []string
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the child has been reaped
	forget  func()        // drops the kill-on-exit registration
}

// freeAddr picks a loopback port that is free right now. The window between
// closing the probe listener and the child binding it is an accepted race
// on a private sandbox.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches gpserve on a free port with its output appended to
// <dir>/<name>.log. The child is killed when this process exits, is
// signalled, or dies (Pdeathsig).
func (e *env) startServer(name, dir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, addr: addr, url: "http://" + addr, args: args, logPath: filepath.Join(dir, name+".log")}
	if err := e.launch(p); err != nil {
		return nil, err
	}
	return p, nil
}

// launch starts (or restarts, on the same address) the child of p.
func (e *env) launch(p *proc) error {
	bin, err := e.gpserveBin()
	if err != nil {
		return err
	}
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", p.addr}, p.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.cmd, p.exited = cmd, make(chan struct{})
	go func(done chan struct{}) {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped child carries nothing
		close(done)
	}(p.exited)
	p.forget = e.onExit(p.kill)
	return nil
}

// kill stops the child at once and waits until it is gone.
func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-p.exited
}

// stop kills the child, waits for it, and forgets the exit hook.
func (p *proc) stop() {
	p.forget() // runs kill
}

// terminate asks the child to shut down gracefully (SIGTERM: gpserve closes
// its registry and fsyncs its journal) and waits for it to exit.
func (p *proc) terminate(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		p.forget() // reaped: nothing left to kill on exit
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("%s did not exit within %v of SIGTERM\n%s", p.name, timeout, p.logTail())
	}
}

// waitReady polls /v1/readyz until it answers 200. A child that exits, or
// never turns ready, fails fast with the tail of its log.
func (p *proc) waitReady(c *client.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Readyz(ctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready\n%s", p.name, p.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %v\n%s", p.name, timeout, err, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the last lines of the child's log, without the access-log
// lines of the readiness probes that waitReady itself caused.
func (p *proc) logTail() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if !strings.Contains(line, "path=/v1/readyz") {
			lines = append(lines, line)
		}
	}
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return "--- " + p.logPath + " ---\n" + strings.Join(lines, "\n")
}

// cpuSeconds is the child's user plus system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may hold spaces.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unreadable /proc stat line")
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (utime + stime) / clockTicks, nil
}

func (p *proc) peakRSSMB() (float64, error) { return peakRSSMB(p.cmd.Process.Pid) }
