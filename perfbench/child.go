package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// pipeResult is one finished eyeballpipe run.
type pipeResult struct {
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64 // KiB, from rusage
}

// runPipe runs eyeballpipe to completion as a child process.
func runPipe(ctx context.Context, bin string, args ...string) (pipeResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return pipeResult{}, fmt.Errorf("eyeballpipe %v: %w: %s", args, err, lastLine(stderr.Bytes()))
	}
	ps := cmd.ProcessState
	var rss int64
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return pipeResult{wall: wall, cpu: ps.UserTime() + ps.SystemTime(), maxRSS: rss}, nil
}

func lastLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}

// server is a running eyeballserve child.
type server struct {
	cmd   *exec.Cmd
	base  string        // http://host:port
	debug string        // http://host:port of the -pprof listener
	setup time.Duration // child start to first 200 on /healthz
	logs  chan struct{} // closed once stderr hits EOF
}

// controlClient carries health checks, scrapes and reloads on
// connections of their own, apart from the generator's.
var controlClient = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}

// debugLine is the prefix of the line eyeballserve logs when its -pprof
// listener is up; the address follows it.
const debugLine = "obs: serving /metrics and /debug/pprof/ on "

// startServer launches eyeballserve on snap with shipped defaults plus
// -metrics (which mounts /metrics) and -pprof on a loopback port of its
// own (which lets the harness start each rung from a collected heap),
// and returns once /healthz first answers 200. The addresses come from
// the server's log; the rest of its access log is discarded.
func startServer(bin, snap, metricsOut string) (*server, error) {
	cmd := exec.Command(bin, "-snap", snap, "-addr", "127.0.0.1:0", "-metrics", metricsOut, "-pprof", "127.0.0.1:0")
	// A harness killed outright must not leave a server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting eyeballserve: %w", err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{})}
	addrc := make(chan string, 1)
	var lastErr string
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if found {
				continue
			}
			if addr, ok := strings.CutPrefix(sc.Text(), debugLine); ok {
				s.debug = addr
				continue
			}
			var rec struct{ Msg, Addr, Error string }
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			if rec.Error != "" {
				lastErr = rec.Error
			}
			if rec.Msg == "listening" {
				addrc <- rec.Addr
				found = true
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
		if s.debug == "" {
			s.stop()
			return nil, errors.New("eyeballserve logged no -pprof address before listening")
		}
	case <-s.logs:
		cmd.Wait()
		return nil, fmt.Errorf("eyeballserve exited before listening: %s", lastErr)
	case <-time.After(2 * time.Minute):
		s.stop()
		return nil, errors.New("eyeballserve did not start listening within 2m")
	}
	for {
		code, _, err := s.get("/healthz")
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(start) > 2*time.Minute {
			s.stop()
			return nil, fmt.Errorf("eyeballserve /healthz not ready within 2m (last: %d %v)", code, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// get fetches a path on the control connection.
func (s *server) get(path string) (int, []byte, error) {
	resp, err := controlClient.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads /metrics and the process's CPU time.
func (s *server) scrape() (promSet, float64, error) {
	code, body, err := s.get("/metrics")
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, fmt.Errorf("/metrics: HTTP %d", code)
	}
	ps, err := parseProm(bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	cpu, err := procCPU(s.pid())
	return ps, cpu, err
}

// gcCycles returns how many GC cycles the server has completed, read
// from the runtime.MemStats footer of its heap profile. With collect set
// the server first runs a full collection, as testing.B does before
// timing.
func (s *server) gcCycles(collect bool) (int, error) {
	url := s.debug + "/debug/pprof/heap?debug=1"
	if collect {
		url += "&gc=1"
	}
	resp, err := controlClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("heap profile: HTTP %d", resp.StatusCode)
	}
	return parseNumGC(resp.Body)
}

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited within 15s, and waits for it.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.logs:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.logs
	}
	err := s.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && !exit.Exited() {
		return nil // ended by our signal
	}
	return err
}

// reload posts /-/reload on the control connection.
func (s *server) reload(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/-/reload", nil)
	if err != nil {
		return err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}
