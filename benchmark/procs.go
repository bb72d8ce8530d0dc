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
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where one benchmark process works: the repository it
// measures, the binaries it built from it, and the directory its runs
// write into. Everything it creates lives under the repository's
// .bench_build directory.
type env struct {
	root   string // repository root
	bin    string // built lce-server / lce-router
	out    string // result JSON, child logs, traces
	work   string // per-process scratch: data dirs
	mu     sync.Mutex
	procs  []*proc
	closed bool
}

// findRoot walks up from the working directory to the checkout root,
// recognised by BENCHMARK.json next to the servers' sources.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "lce-server")); err != nil {
				return "", fmt.Errorf("%s has BENCHMARK.json but no cmd/lce-server: not a checkout of the repository", dir)
			}
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in any parent directory: run from inside the repository")
		}
		dir = parent
	}
}

func newEnv(out string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if out == "" {
		out = filepath.Join(build, "out")
	}
	e := &env{root: root, bin: filepath.Join(build, "bin"), out: out, work: filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))}
	for _, d := range []string{e.bin, e.out, e.work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// preflight refuses to measure on a box that cannot carry the load
// shape, or next to servers a previous run left behind.
func (e *env) preflight() error {
	if n := runtime.NumCPU(); n < 2 {
		return fmt.Errorf("need at least 2 CPUs (generator and server must not share one), have %d", n)
	}
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return err
	}
	for _, ent := range ents {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", ent.Name(), "exe"))
		if err != nil {
			continue
		}
		exe = strings.TrimSuffix(exe, " (deleted)")
		if filepath.Dir(exe) == e.bin && pid != os.Getpid() {
			return fmt.Errorf("stale %s (pid %d) from a previous run is still alive; kill it first", filepath.Base(exe), pid)
		}
	}
	return nil
}

// build compiles the unmodified servers from the checkout's sources.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/lce-server", "./cmd/lce-router")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// close kills every child still alive and removes the scratch
// directory; safe to call more than once and from a signal handler.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs, e.closed = nil, true
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.work)
}

// proc is one server under test: a child in its own process group
// with its output captured to the run's output directory.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the child has been reaped
}

// freeAddr asks the kernel for a loopback port nobody holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts binary with args plus "-addr <free port>", logging to
// <out>/<name>.log.
func (e *env) spawn(name, binary string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.out, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, binary), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		logf.Close()
		return nil, errors.New("benchmark is shutting down")
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: name, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	e.procs = append(e.procs, p)
	return p, nil
}

// kill SIGKILLs the child's whole process group and waits until it
// has been reaped. Killing a reaped child is a no-op.
func (p *proc) kill() {
	if !p.alive() {
		return
	}
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	p.log.Close()
}

// alive reports whether the child is still running.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// healthTimeout bounds how long a freshly spawned server may take to
// answer; the learned backend synthesizes its spec at start-up.
const healthTimeout = 20 * time.Second

// waitHealthy polls GET /healthz until the server answers 200.
func (p *proc) waitHealthy() error {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		if !p.alive() {
			return fmt.Errorf("%s exited before becoming healthy (see %s)", p.name, p.log.Name())
		}
		req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+p.addr+"/healthz", nil)
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy on %s within %s (see %s)", p.name, p.addr, healthTimeout, p.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	cpu        time.Duration // user + system
	writeBytes int64         // bytes sent towards storage
	peakRSSMB  float64
}

// clockTick is the kernel's USER_HZ; /proc/<pid>/stat counts CPU time
// in these, and on Linux it is 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// sampleProc reads /proc/<pid>/{stat,io,status}.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, so the 12th and 13th from there.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpu = time.Duration(ut+st) * clockTick
	if io, err := os.ReadFile(filepath.Join(dir, "io")); err == nil {
		s.writeBytes = procField(io, "\nwrite_bytes:")
	}
	if status, err := os.ReadFile(filepath.Join(dir, "status")); err == nil {
		s.peakRSSMB = float64(procField(status, "VmHWM:")) / 1024
	}
	return s, nil
}

// procField returns the first integer after key in a /proc text file.
func procField(data []byte, key string) int64 {
	_, after, ok := bytes.Cut(data, []byte(key))
	if !ok {
		return 0
	}
	f := strings.Fields(string(after[:min(len(after), 64)]))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseInt(f[0], 10, 64)
	return v
}

// fsType names the filesystem holding path; tmpfs makes fsync free, so
// the result must say where the data directories lived.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
