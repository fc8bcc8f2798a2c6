package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture the Go toolchain targets.
const clockTick = 10 * time.Millisecond

// bootTimeout bounds how long a gksd boot may take to answer /healthz.
const bootTimeout = 60 * time.Second

// daemon is one running gksd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	log  *os.File
}

// startDaemon spawns gksd serving index with default flags and returns
// once /healthz answers 200, with the time that took.
func startDaemon(bin, index string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(index), "gksd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-index", index, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies, gksd goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start gksd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status is reported by whoever stops it
		close(d.done)
	}()
	up, err := d.awaitHealthy(start)
	if err != nil {
		d.stop(syscall.SIGKILL)
		return nil, 0, err
	}
	return d, up, nil
}

// awaitHealthy polls /healthz until it answers 200.
func (d *daemon) awaitHealthy(start time.Time) (time.Duration, error) {
	cl := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		select {
		case <-d.done:
			return 0, fmt.Errorf("gksd exited during boot (see %s)", d.log.Name())
		default:
		}
		if resp, err := cl.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		if time.Since(start) > bootTimeout {
			return 0, fmt.Errorf("gksd not healthy after %s", bootTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends sig and waits for the process to exit, killing it if a
// graceful stop takes longer than 30 s.
func (d *daemon) stop(sig syscall.Signal) {
	_ = d.cmd.Process.Signal(sig) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTime is the process's user+system CPU time so far.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := procCPUTicks(string(b))
	return time.Duration(ticks) * clockTick, err
}

// peakRSS is the process's VmHWM in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kib, err := procStatusKiB(string(b), "VmHWM")
	return float64(kib) / 1024, err
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	addr, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		return 0, errors.New("listener has no TCP address")
	}
	return addr.Port, nil
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
