package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running skyrand process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startDaemon launches skyrand on an ephemeral port and waits for the
// line that names the address it listens on.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If the benchmark itself dies, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting skyrand: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Copy stdout to the log until the process exits; the first line
		// naming an http:// address is the listen address.
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "on http://"); i >= 0 && !found {
				found = true
				addr, _, _ := strings.Cut(line[i+len("on "):], " ")
				addrc <- addr
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // drain after a scan error
		cmd.Wait()               //nolint:errcheck // exit status is not a result
		logf.Close()
		close(d.done)
	}()
	select {
	case d.base = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("skyrand exited before listening (log %s)", logPath)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("skyrand did not report its address within 20s (log %s)", logPath)
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited after a grace period, and returns once the process is gone.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.done:
		return
	case <-time.After(15 * time.Second):
	}
	d.cmd.Process.Kill() //nolint:errcheck
	<-d.done
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPU returns user+system CPU seconds of a process.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// deployment is the set of daemons one workload runs against: a single
// daemon, or a coordinator in front of workers (sweep).
type deployment struct {
	front   *daemon   // where the client connects
	daemons []*daemon // every process, front included
}

// deploy starts the workload's daemons with their state under dir.
func deploy(w *workload, bin, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-workers", strconv.Itoa(w.runners)}
	if w.checkpoint {
		args = append(args, "-checkpoint-dir", filepath.Join(dir, "state"))
	}
	dep := &deployment{}
	if w.campaignSeeds == 0 {
		d, err := startDaemon(bin, filepath.Join(dir, "skyrand.log"), args...)
		if err != nil {
			return nil, err
		}
		dep.front, dep.daemons = d, []*daemon{d}
		return dep, nil
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("worker%d", i)
		d, err := startDaemon(bin, filepath.Join(dir, name+".log"), args...)
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
		addrs = append(addrs, d.base)
	}
	coordArgs := append([]string{"-coordinator", "-worker-addrs", strings.Join(addrs, ",")}, w.coordArgs...)
	c, err := startDaemon(bin, filepath.Join(dir, "coordinator.log"), coordArgs...)
	if err != nil {
		dep.stop()
		return nil, err
	}
	dep.front = c
	dep.daemons = append(dep.daemons, c)
	return dep, nil
}

// stop shuts every process down, front first.
func (dep *deployment) stop() {
	for i := len(dep.daemons) - 1; i >= 0; i-- {
		dep.daemons[i].stop()
	}
}

// workers are the daemons that run jobs (all but a coordinator).
func (dep *deployment) workers() []*daemon {
	if len(dep.daemons) == 1 {
		return dep.daemons
	}
	return dep.daemons[:len(dep.daemons)-1]
}

// cpu is the summed user+system CPU seconds of every process.
func (dep *deployment) cpu() (float64, error) {
	var sum float64
	for _, d := range dep.daemons {
		c, err := procCPU(d.pid())
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// hwm is the summed peak resident set of every process in MiB.
func (dep *deployment) hwm() (float64, error) {
	var sum float64
	for _, d := range dep.daemons {
		m, err := procHWM(d.pid())
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}
