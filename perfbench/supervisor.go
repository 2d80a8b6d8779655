package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// supervisor owns the op worker: a child process running runWorker. An op
// whose worker dies (a panic in any goroutine, a kill) fails; a warm spare
// worker, started ahead of time, takes over before the next op and the run
// goes on. The supervisor also accounts the CPU time and peak RSS of every
// worker it started.
type supervisor struct {
	argv []string
	env  []string

	// w runs the ops; spare is started and idle, ready to replace w.
	w, spare *workerProc

	// Restarts counts workers that died during an op.
	Restarts int
	// LastCrash is the first line of the last crashed worker's stderr
	// that names a panic or fatal error.
	LastCrash string

	// warm is the op a new worker runs, untimed, before it takes timed
	// ops, so the first op after a crash is not charged the new process's
	// cold start (page faults, heap growth). The zero request is a ping.
	warm request

	windowCPU time.Duration // CPU of workers reaped inside the window
	// peaksKB holds the peak RSS of every reaped worker.
	peaksKB    []int64
	opTimeout  time.Duration
	windowOpen bool
}

type workerProc struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	stderr *crashLog
	seq    int
	// cpuBase is the worker's cumulative CPU when the accounting window
	// opened (0 for a worker started inside the window).
	cpuBase time.Duration
	lastCPU time.Duration
}

// crashLog keeps the first panic or fatal-error line a worker writes to
// stderr; the goroutine dump after it is discarded.
type crashLog struct {
	mu   sync.Mutex
	line string
	rest []byte
}

func (c *crashLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.line != "" {
		return len(p), nil
	}
	c.rest = append(c.rest, p...)
	for {
		i := strings.IndexByte(string(c.rest), '\n')
		if i < 0 {
			break
		}
		ln := string(c.rest[:i])
		c.rest = c.rest[i+1:]
		if strings.HasPrefix(ln, "panic:") || strings.HasPrefix(ln, "fatal error:") {
			c.line = ln
			c.rest = nil
			break
		}
	}
	if len(c.rest) > 4096 {
		c.rest = c.rest[len(c.rest)-4096:]
	}
	return len(p), nil
}

func (c *crashLog) first() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.line
}

// newSupervisor runs workers as argv with the role marker added to env.
func newSupervisor(argv, env []string) *supervisor {
	return &supervisor{
		argv:      argv,
		env:       append(append([]string{}, env...), roleEnv+"=worker"),
		opTimeout: 60 * time.Second,
	}
}

// spawn starts one worker process.
func (s *supervisor) spawn() (*workerProc, error) {
	cmd := exec.Command(s.argv[0], s.argv[1:]...)
	cmd.Env = s.env
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cl := &crashLog{}
	cmd.Stderr = cl
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker: %w", err)
	}
	return &workerProc{cmd: cmd, in: in, out: bufio.NewReader(out), stderr: cl}, nil
}

// ensure makes sure a worker and a spare are running. A spare promoted to
// worker first runs the warm op, so its start-up is never charged to a
// timed op.
func (s *supervisor) ensure() error {
	if s.w == nil {
		if s.spare != nil {
			s.w, s.spare = s.spare, nil
		} else {
			w, err := s.spawn()
			if err != nil {
				return err
			}
			s.w = w
		}
		warm := s.warm
		if warm.Kind == "" {
			warm.Kind = "ping"
		}
		if _, err := s.exchange(s.w, warm); err != nil {
			return fmt.Errorf("warming new worker: %v", err)
		}
	}
	if s.spare == nil {
		w, err := s.spawn()
		if err != nil {
			return err
		}
		s.spare = w
	}
	return nil
}

// reap waits for a worker to exit and folds its CPU and peak RSS into the
// totals.
func (s *supervisor) reap(w *workerProc) {
	w.in.Close()
	_ = w.cmd.Wait() // a crashed worker exits non-zero; its state is still read below
	st := w.cmd.ProcessState
	if st == nil {
		return
	}
	if s.windowOpen {
		s.windowCPU += st.UserTime() + st.SystemTime() - w.cpuBase
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		s.peaksKB = append(s.peaksKB, ru.Maxrss)
	}
}

// errWorkerDied marks an op lost to a worker crash.
var errWorkerDied = errors.New("worker died")

// do runs one op on the worker. A worker that dies or hangs mid-op is
// reaped and counted as a restart, the spare takes over (its warm op and
// the new spare's start are charged to the failed op), and the op returns
// errWorkerDied.
func (s *supervisor) do(req request) (response, error) {
	if err := s.ensure(); err != nil {
		return response{}, err
	}
	resp, err := s.exchange(s.w, req)
	if !errors.Is(err, errWorkerDied) {
		return resp, err
	}
	crashed := s.w
	s.w = nil
	s.reap(crashed)
	s.Restarts++
	if c := crashed.stderr.first(); c != "" {
		s.LastCrash = c
	}
	if err := s.ensure(); err != nil {
		return response{}, err
	}
	return response{}, err
}

// exchange sends one request to a worker and reads its answer. A broken
// pipe or a timeout (the worker is then killed) is errWorkerDied.
func (s *supervisor) exchange(w *workerProc, req request) (response, error) {
	w.seq++
	req.Seq = w.seq
	b, err := json.Marshal(req)
	if err != nil {
		return response{}, err
	}
	type result struct {
		line []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		if _, err := w.in.Write(append(b, '\n')); err != nil {
			done <- result{err: err}
			return
		}
		line, err := w.out.ReadBytes('\n')
		done <- result{line, err}
	}()
	var res result
	timer := time.NewTimer(s.opTimeout)
	defer timer.Stop()
	select {
	case res = <-done:
	case <-timer.C:
		_ = w.cmd.Process.Kill()
		res = <-done
		if res.err == nil {
			res.err = fmt.Errorf("op timed out after %v", s.opTimeout)
		}
	}
	if res.err != nil {
		return response{}, fmt.Errorf("%w: %v", errWorkerDied, res.err)
	}
	var resp response
	if err := json.Unmarshal(res.line, &resp); err != nil {
		return response{}, fmt.Errorf("decoding worker response: %w", err)
	}
	if resp.Seq != req.Seq {
		return response{}, fmt.Errorf("worker answered op %d, want %d", resp.Seq, req.Seq)
	}
	w.lastCPU = time.Duration(resp.CPUNs)
	return resp, nil
}

// live lists the running workers.
func (s *supervisor) live() []*workerProc {
	var ws []*workerProc
	for _, w := range []*workerProc{s.w, s.spare} {
		if w != nil {
			ws = append(ws, w)
		}
	}
	return ws
}

// openWindow starts CPU accounting: CPU the live workers spent so far and
// every worker already reaped is excluded.
func (s *supervisor) openWindow() error {
	if err := s.ensure(); err != nil {
		return err
	}
	for _, w := range s.live() {
		if _, err := s.exchange(w, request{Kind: "ping"}); err != nil {
			return err
		}
		w.cpuBase = w.lastCPU
	}
	s.windowCPU = 0
	s.windowOpen = true
	return nil
}

// closeWindow ends CPU accounting and returns the worker CPU spent inside
// the window, the live workers' included. The workers keep running.
func (s *supervisor) closeWindow() (time.Duration, error) {
	for _, w := range s.live() {
		if _, err := s.exchange(w, request{Kind: "ping"}); err != nil {
			return 0, err
		}
		s.windowCPU += w.lastCPU - w.cpuBase
	}
	s.windowOpen = false
	return s.windowCPU, nil
}

// stop ends every live worker.
func (s *supervisor) stop() {
	for _, w := range s.live() {
		s.reap(w)
	}
	s.w, s.spare = nil, nil
}

// peakRSSKB is the 95th percentile of the reaped workers' peak RSS. A
// cdpf-cells run starts hundreds of workers (every crash needs a new one);
// their largest footprints reflect how long each lived, and the p95 reads
// that large-footprint worker without the extreme-value noise of the max.
// With a single worker it is that worker's peak.
func (s *supervisor) peakRSSKB() int64 {
	ps := make([]float64, len(s.peaksKB))
	for i, p := range s.peaksKB {
		ps[i] = float64(p)
	}
	return int64(quantile(ps, 95))
}

// workerArgv is how the benchmark binary starts its own worker.
func workerArgv() ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return []string{exe}, nil
}
