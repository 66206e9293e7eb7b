package main

import (
	"bytes"
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

// child is one process under test. It runs in its own process group with
// standard output and error going to a file under the work directory —
// never the harness's own pipes, so a chatty or stuck child cannot block
// the harness — and is registered so every exit path kills it.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string        // path of its combined stdout+stderr
	done chan struct{} // closed once Wait returned
	err  error         // Wait's error, valid after done
}

// procSet is the registry of live children.
type procSet struct {
	mu   sync.Mutex
	live map[*child]bool
}

// spawn starts bin with args. Standard error goes to logPath; so does
// standard output unless outPath names a file of its own.
func (h *harness) spawn(name, logPath, outPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	outf := logf
	if outPath != "" {
		if outf, err = os.Create(outPath); err != nil {
			return nil, err
		}
		defer outf.Close()
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = h.workDir
	cmd.Stdout, cmd.Stderr = outf, logf
	// Own process group, so killing -pid takes any grandchildren too; and
	// if the harness itself is SIGKILLed the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	h.procs.mu.Lock()
	if h.procs.live == nil {
		h.procs.live = make(map[*child]bool)
	}
	if err := cmd.Start(); err != nil {
		h.procs.mu.Unlock()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	h.procs.live[c] = true
	h.procs.mu.Unlock()
	go func() {
		c.err = cmd.Wait()
		h.procs.mu.Lock()
		delete(h.procs.live, c)
		h.procs.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// wait blocks until the child exits or d passes; past d the child is
// killed and errTimeout returned.
func (c *child) wait(d time.Duration) error {
	select {
	case <-c.done:
		return nil
	case <-time.After(d):
		c.kill()
		return fmt.Errorf("%s: %w after %s", c.name, errTimeout, d)
	}
}

// kill SIGKILLs the child's process group and waits for it to be reaped.
func (c *child) kill() {
	syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second): // unkillable (D state); nothing more to do
	}
}

// term asks the child to stop with SIGTERM and escalates after d.
func (c *child) term(d time.Duration) error {
	syscall.Kill(c.cmd.Process.Pid, syscall.SIGTERM)
	return c.wait(d)
}

// exitCode is the child's exit status, -1 when it was killed by a signal.
func (c *child) exitCode() int { return c.cmd.ProcessState.ExitCode() }

// cpuSeconds is the exited child's user+system CPU time.
func (c *child) cpuSeconds() float64 {
	ps := c.cmd.ProcessState
	return ps.UserTime().Seconds() + ps.SystemTime().Seconds()
}

// maxRSSMB is the exited child's peak resident set (Linux reports KiB).
func (c *child) maxRSSMB() float64 {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// logTail returns the last bytes of the child's log, for error messages.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.log)
	if err != nil {
		return ""
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

func (p *procSet) killAll() {
	p.mu.Lock()
	cs := make([]*child, 0, len(p.live))
	for c := range p.live {
		cs = append(cs, c) //snavet:ordered every child is killed; the order does not matter
	}
	p.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// snad is a running `snad serve`.
type snad struct {
	*child
	url string
}

// startSnad spawns `snad serve -listen 127.0.0.1:0` with extra flags,
// reads the address the kernel picked from the "snad: listening on" line
// of its log, and waits until /readyz answers 200.
func (h *harness) startSnad(name string, extra ...string) (*snad, error) {
	args := append([]string{"serve", "-listen", "127.0.0.1:0", "-quiet"}, extra...)
	c, err := h.spawn(name, fmt.Sprintf("%s/%s.%d.log", h.workDir, name, time.Now().UnixNano()), "", h.bin("snad"), args...)
	if err != nil {
		return nil, err
	}
	const marker = "snad: listening on "
	deadline := time.Now().Add(15 * time.Second)
	var addr string
	for addr == "" {
		select {
		case <-c.done:
			return nil, fmt.Errorf("%s exited before listening: %s", name, c.logTail())
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s: no listen address: %w", name, errTimeout)
		}
		data, _ := os.ReadFile(c.log)
		if i := bytes.Index(data, []byte(marker)); i >= 0 {
			rest := data[i+len(marker):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				addr = strings.TrimSpace(string(rest[:j]))
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := &snad{child: c, url: "http://" + addr}
	for {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s: not ready: %w", name, errTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procCPUSeconds reads a live process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// procPeakRSSMB reads a live process's VmHWM from /proc/<pid>/status.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPUSeconds is the harness's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
