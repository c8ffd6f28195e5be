package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// child is the server process the generator drives.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	ready readyMsg
	done  chan error // stop's Wait result
}

// startChild starts the server process and returns once it has reported
// ready and answered /readyz with 200, with the time that took: process
// start, corpus build and calibration.
func startChild(exe string, args ...string) (*child, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(exe, append([]string{"serve"}, args...)...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewScanner(outPipe), done: make(chan error, 1)}
	c.out.Buffer(make([]byte, 1<<16), 16<<20)
	if err := c.read("ready", &c.ready); err != nil {
		c.kill()
		return nil, 0, fmt.Errorf("server process: %w", err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(c.ready.URL + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > time.Minute {
			c.kill()
			return nil, 0, errors.New("server process never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	client.CloseIdleConnections()
	return c, time.Since(t0), nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// read reads the next reply line, which must carry prefix, into v.
func (c *child) read(prefix string, v any) error {
	if !c.out.Scan() {
		if err := c.out.Err(); err != nil {
			return err
		}
		return errors.New("server process exited")
	}
	line := c.out.Text()
	rest, ok := strings.CutPrefix(line, prefix+" ")
	if !ok {
		return fmt.Errorf("server process: want %q reply, got %q", prefix, line)
	}
	return json.Unmarshal([]byte(rest), v)
}

func (c *child) call(cmd, prefix string, v any) error {
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return err
	}
	return c.read(prefix, v)
}

func (c *child) snap() (serverSnap, error) {
	var s serverSnap
	err := c.call("snap", "snap", &s)
	return s, err
}

func (c *child) setTrace(on bool) error {
	cmd := "trace off"
	if on {
		cmd = "trace on"
	}
	return c.call(cmd, "ok", &struct{}{})
}

// stop asks the server process to shut down and waits for it to exit.
func (c *child) stop() (stopMsg, error) {
	var msg stopMsg
	err := c.call("stop", "stopped", &msg)
	c.in.Close()
	go func() { c.done <- c.cmd.Wait() }()
	select {
	case werr := <-c.done:
		if err == nil {
			err = werr
		}
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
		if err == nil {
			err = errors.New("server process did not exit")
		}
	}
	return msg, err
}

// kill ends a process that stop has not waited for, and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // it may have exited already
	c.in.Close()
	_ = c.cmd.Wait()
}

// procCPU returns the CPU time a process's threads have run, summed
// from /proc/<pid>/task/*/schedstat (nanoseconds; /proc/<pid>/stat
// counts in 10ms ticks, coarse beside a query's ~100us).
// Go threads do not exit, so the sum only grows.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread is gone
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("malformed /proc schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// hostTicks reads the machine's total and stolen CPU time (USER_HZ
// ticks) from /proc/stat: the share stolen by the hypervisor between two
// readings tells how much of the machine the run actually had.
func hostTicks() (total, steal int64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, errors.New("empty /proc/stat")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user..steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// stealMeter reports the share of the machine's CPU time stolen since
// it was made.
type stealMeter struct{ total, steal int64 }

func newStealMeter() stealMeter {
	t, s, _ := hostTicks() // zeros when /proc/stat is unreadable
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s, err := hostTicks()
	if err != nil || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// threadIDs lists this process's threads.
func threadIDs() ([]int, error) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(tasks))
	for _, t := range tasks {
		if id, err := strconv.Atoi(t.Name()); err == nil {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// vmHWM returns a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// runtimeCPU reads this process's GC and total CPU seconds from
// runtime/metrics.
func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// envRecord identifies where and on what a result was measured.
type envRecord struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Trace        bool    `json:"trace"`
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GenMaxProcs  int     `json:"gomaxprocs_generator"`
	SrvMaxProcs  int     `json:"gomaxprocs_server,omitempty"`
	GenCPUs      []int   `json:"cpus_generator,omitempty"`
	SrvCPUs      []int   `json:"cpus_server,omitempty"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Rate         float64 `json:"rate_per_s"`
	LimitMs      float64 `json:"latency_limit_ms"`
	Connections  int     `json:"connections"`
	QualityN     int     `json:"quality_requests"`
	LatencySecs  float64 `json:"latency_phase_s"`
	ThroughSecs  float64 `json:"throughput_phase_s"`
	SetupRepeats int     `json:"setup_repeats"`
	StealShare   float64 `json:"steal_share"`
}

func newEnvRecord(root, wl string, seed int64, seconds int, trace bool) envRecord {
	return envRecord{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		GenMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision: git's HEAD when root is a git
// checkout, else "unknown".
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
