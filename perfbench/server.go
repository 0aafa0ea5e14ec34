package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/explain"
	"macrobase/internal/ingest"
	"macrobase/internal/pipeline"
)

// server is one mbserver child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer
}

// startServer spawns mbserver and waits for /healthz to answer 200.
func startServer(bin string, client *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr}
	s.cmd = exec.Command(bin, "-addr", addr)
	// The server must not outlive the benchmark, even if it crashes.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning mbserver: %w", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("mbserver not healthy after 20s: %v\n%s", err, s.log.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill terminates the server and waits for it to exit.
func (s *server) kill() {
	if s.cmd.Process == nil {
		return
	}
	// The process may already be gone; Wait reaps it either way.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// startStream posts /stream/start for w and returns the session id.
func (s *server) startStream(client *http.Client, w workload) (string, error) {
	req := map[string]any{"input": "push", "shards": w.shards, "partitions": w.partitions, "decayEveryPoints": w.decayEvery}
	if w.uncoordinated {
		req["disableGlobalThreshold"] = true
		req["disableRebalance"] = true
	}
	for k, v := range w.start {
		req[k] = v
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(s.base+"/stream/start", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("starting stream: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("starting stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("starting stream: %s: %s", resp.Status, raw)
	}
	var out struct{ ID string }
	if err := json.Unmarshal(raw, &out); err != nil {
		return "", fmt.Errorf("starting stream: %w", err)
	}
	return out.ID, nil
}

// streamReply is the subset of mbserver's /stream/{id} JSON the
// benchmark reads.
type streamReply struct {
	Done         bool                        `json:"done"`
	Points       int64                       `json:"points"`
	Outliers     int64                       `json:"outliers"`
	Cache        explain.CacheStats          `json:"cache"`
	Ingest       []core.PartitionIngestStats `json:"ingest"`
	Shards       *pipeline.ShardBreakdown    `json:"shards"`
	Health       struct{ Status string }     `json:"health"`
	Explanations []explanationReply          `json:"explanations"`
}

type explanationReply struct {
	Attributes []core.Attribute `json:"attributes"`
}

// push sends one MBR1 body and returns the number of accepted rows.
func push(client *http.Client, url string, body []byte) (int64, error) {
	resp, err := client.Post(url, ingest.BinaryContentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("push: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var out struct{ Accepted int64 }
	if err := json.Unmarshal(raw, &out); err != nil {
		return 0, fmt.Errorf("push: %w", err)
	}
	return out.Accepted, nil
}

// poll fetches and decodes a stream report (GET, or POST for /stop).
func poll(client *http.Client, method, url string) (*streamReply, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
	}
	var out streamReply
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return &out, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times (100 on every mainstream Linux architecture).
const clockTicks = 100

// cpuSeconds reads the process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (ut + st) / clockTicks, nil
}

// stealTicks reads the machine-wide stolen and total CPU ticks from
// /proc/stat: on a shared virtual machine, time stolen by other guests
// inflates every latency a run measures.
func stealTicks() (steal, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		// Fields 9 and 10 (guest time) are already counted in user.
		if i < 8 {
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total, nil
}

// peakRSSMB reads the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
