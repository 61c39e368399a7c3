package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one soid or soigw child process listening on loopback.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
}

// startDaemon runs bin with args plus -addr 127.0.0.1:0 -addr-file, and
// waits until it answers /readyz with 200.
func startDaemon(ctx context.Context, binDir, dir, name string, gomaxprocs int, args ...string) (*daemon, error) {
	addrFile := filepath.Join(dir, name+".addr")
	os.Remove(addrFile)
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	bin := strings.SplitN(name, "-", 2)[0]
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, cmd: cmd, log: &bytes.Buffer{}}
	cmd.Stdout, cmd.Stderr = d.log, d.log
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.addr = string(bytes.TrimSpace(b))
			if ready(ctx, "http://"+d.addr) {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("%s did not become ready: %s", name, d.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func ready(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for the process to exit and kills it if it has
// not drained within 10s.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() { d.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-exited
	}
}

// procUsage is a process's CPU time and peak resident set so far.
type procUsage struct {
	cpu    time.Duration
	peakMB float64
}

// usage sums the on-CPU time of every thread of pid from
// /proc/<pid>/task/*/schedstat (nanosecond resolution) and reads the peak
// resident set from /proc/<pid>/status.
func usage(pid int) (procUsage, error) {
	var u procUsage
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return u, fmt.Errorf("no schedstat for pid %d", pid)
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			u.cpu += time.Duration(ns)
		}
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			u.peakMB = kb / 1024
		}
	}
	return u, nil
}

// selfUsage is usage for this process.
func selfUsage() procUsage {
	u, _ := usage(os.Getpid())
	return u
}

func (d *daemon) usage() procUsage {
	u, _ := usage(d.cmd.Process.Pid)
	return u
}
