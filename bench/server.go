package main

import (
	"bufio"
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

// catalogSeed is fixed: --seed drives the requests only, never the data.
const catalogSeed = 42

// server is one inkserve child process.
type server struct {
	cmd     *exec.Cmd
	url     string
	stderr  *os.File
	spawned time.Time
}

// startServer spawns inkserve with default flags on a free loopback port and
// returns once /healthz answers 200. Its stderr goes to
// <outDir>/inkserve-<workload>.log.
func startServer(inkserve, outDir, workload string, sf float64) (*server, error) {
	logFile, err := os.Create(filepath.Join(outDir, "inkserve-"+workload+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(inkserve, "-addr", "127.0.0.1:0",
		"-sf", strconv.FormatFloat(sf, 'g', -1, 64), "-seed", strconv.Itoa(catalogSeed))
	cmd.Stderr = logFile
	// The child must not outlive a harness that is killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	s := &server{cmd: cmd, stderr: logFile, spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", inkserve, err)
	}
	// inkserve prints one stdout line, with its address, once the catalog is
	// generated and the port is open.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "inkserve: listening on ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("inkserve did not announce its address (read %q, %v); see %s", line, err, logFile.Name())
	}
	s.url = addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("inkserve /healthz not ok within 10 s (last error %v)", err)
		}
	}
}

// stop terminates the child and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // a signalled child reports an exit error; nothing to do with it
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.stderr.Close()
}

// cpuSeconds is the child's user+system CPU time so far (/proc/<pid>/stat
// fields 14 and 15, in clock ticks of 1/100 s).
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted after it.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unreadable /proc stat line %q", raw)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMiB is the child's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unreadable VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
