package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one knorserve process the benchmark started. Every proc is
// tracked in live until it has exited, so an aborted run can stop them
// all.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited

	mu   sync.Mutex
	seen []string      // standard output lines so far
	grew chan struct{} // 1-buffered: a line arrived
}

var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// spawn starts bin with args, logging its standard output and error to
// logPath.
func spawn(name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("%s log: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// If the benchmark itself is killed, the kernel kills its servers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), grew: make(chan struct{}, 1)}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			p.mu.Lock()
			p.seen = append(p.seen, sc.Text())
			p.mu.Unlock()
			select {
			case p.grew <- struct{}{}:
			default:
			}
		}
		cmd.Wait()
		logf.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.done)
	}()
	return p, nil
}

// await waits until a line of the process's standard output contains
// substr and returns that line.
func (p *proc) await(substr string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		p.mu.Lock()
		for _, l := range p.seen {
			if strings.Contains(l, substr) {
				p.mu.Unlock()
				return l, nil
			}
		}
		p.mu.Unlock()
		select {
		case <-p.grew:
		case <-p.done:
			select {
			case <-p.grew:
				continue // the last lines may hold it
			default:
			}
			return "", fmt.Errorf("%s exited before printing %q", p.name, substr)
		case <-deadline:
			return "", fmt.Errorf("%s did not print %q within %s", p.name, substr, timeout)
		}
	}
}

// stop asks the process to shut down gracefully and waits for it,
// killing it if it takes longer than grace.
func (p *proc) stop(grace time.Duration) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	p.wait(grace)
}

// wait waits up to grace for the process to exit, then kills it.
func (p *proc) wait(grace time.Duration) {
	select {
	case <-p.done:
	case <-time.After(grace):
		p.kill()
	}
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// hwmMB is the process's peak resident set size (VmHWM) in MB.
func (p *proc) hwmMB() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM %q: %w", p.name, f[1], err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// killAll stops every process still running; the run's exit paths call
// it so no server outlives the benchmark.
func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}
