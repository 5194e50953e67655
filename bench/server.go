package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mimdmap/internal/core"
	"mimdmap/internal/graph"
	"mimdmap/internal/schedule"
	"mimdmap/internal/service"
	"mimdmap/internal/topology"
)

// wireRequest mirrors mapserve's /solve and /remap request bodies; the
// prev_* fields are set on /remap only.
type wireRequest struct {
	Problem        string `json:"problem"`
	System         string `json:"system,omitempty"`
	Topology       string `json:"topology,omitempty"`
	Clustering     string `json:"clustering,omitempty"`
	Clusterer      string `json:"clusterer,omitempty"`
	Refiner        string `json:"refiner,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Starts         int    `json:"starts,omitempty"`
	Refinements    int    `json:"refinements,omitempty"`
	PrevProblem    string `json:"prev_problem,omitempty"`
	PrevSystem     string `json:"prev_system,omitempty"`
	PrevTopology   string `json:"prev_topology,omitempty"`
	PrevAssignment []int  `json:"prev_assignment,omitempty"`
}

// wireResponse is the part of mapserve's response body the oracle reads.
type wireResponse struct {
	Assignment    []int `json:"assignment"`
	TotalTime     int   `json:"total_time"`
	LowerBound    int   `json:"lower_bound"`
	OptimalProven bool  `json:"optimal_proven"`
}

// wire is the job as a /solve body; text is the problem's text form.
func (j *job) wire(text string) wireRequest {
	w := wireRequest{Problem: text, Refiner: j.refiner, Seed: j.seed, Starts: j.opts.Starts, Refinements: j.opts.MaxRefinements}
	var b strings.Builder
	if j.mach.spec != "" {
		w.Topology = j.mach.spec
	} else {
		_ = graph.WriteSystem(&b, j.mach.sys)
		w.System = b.String()
		b.Reset()
	}
	if j.clus != nil {
		_ = graph.WriteClustering(&b, j.clus)
		w.Clustering = b.String()
	} else {
		w.Clusterer = "random"
	}
	return w
}

// remapWire is the /remap body that moves the solved request prev, whose
// answer assigned clusters as assign, onto the problem newText.
func remapWire(prev wireRequest, assign []int, newText string) wireRequest {
	w := prev
	w.Problem = newText
	w.PrevProblem = prev.Problem
	w.PrevSystem, w.PrevTopology = prev.System, prev.Topology
	w.PrevAssignment = assign
	return w
}

// fromWire decodes a wire body the way mapserve does, into a service
// request and, for a remap, the previous response it carries. workers is
// mapserve's -workers setting.
func fromWire(w *wireRequest, workers int) (*service.Request, *service.Response, error) {
	req := &service.Request{Topology: w.Topology, Clusterer: w.Clusterer, Refiner: w.Refiner, Seed: w.Seed}
	req.Options.Starts = w.Starts
	req.Options.Workers = workers
	req.Options.MaxRefinements = w.Refinements
	var err error
	if req.Problem, err = graph.ReadProblem(strings.NewReader(w.Problem)); err != nil {
		return nil, nil, err
	}
	if w.System != "" {
		if req.System, err = graph.ReadSystem(strings.NewReader(w.System)); err != nil {
			return nil, nil, err
		}
	}
	if w.Clustering != "" {
		if req.Clustering, err = graph.ReadClustering(strings.NewReader(w.Clustering)); err != nil {
			return nil, nil, err
		}
	}
	if w.PrevProblem == "" {
		return req, nil, nil
	}
	prev := &service.Response{Result: &core.Result{Assignment: schedule.FromPerm(w.PrevAssignment)}}
	if prev.Problem, err = graph.ReadProblem(strings.NewReader(w.PrevProblem)); err != nil {
		return nil, nil, err
	}
	if w.PrevSystem != "" {
		prev.System, err = graph.ReadSystem(strings.NewReader(w.PrevSystem))
	} else {
		seed := w.Seed
		if seed == 0 {
			seed = 1
		}
		prev.System, err = topology.ByName(w.PrevTopology, rand.New(rand.NewSource(seed)))
	}
	if err != nil {
		return nil, nil, err
	}
	return req, prev, nil
}

// server is one mapserve process listening on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	once   sync.Once
}

// startServer starts mapserve and returns once GET /strategies answers.
// The caller must stop it.
func startServer(bin string, workers int) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-concurrent", "2", "-workers", strconv.Itoa(workers))
	first := &firstLine{line: make(chan string, 1)}
	cmd.Stdout = first
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mapserve: %w", err)
	}
	srv := &server{cmd: cmd, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   2 * time.Minute,
	}}
	var line string
	select {
	case line = <-first.line:
	case <-time.After(30 * time.Second):
		srv.stop()
		return nil, fmt.Errorf("mapserve printed no listening line within 30s")
	}
	// "mapserve: listening on 127.0.0.1:PORT (max 2 concurrent solves)"
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[1] != "listening" {
		srv.stop()
		return nil, fmt.Errorf("unexpected mapserve banner %q", line)
	}
	srv.base = "http://" + fields[3]
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := srv.client.Get(srv.base + "/strategies")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, nil
			}
		}
		if time.Now().After(deadline) {
			srv.stop()
			return nil, fmt.Errorf("mapserve at %s did not answer GET /strategies within 30s", srv.base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop terminates the process and waits for it to exit. Safe to call
// more than once.
func (s *server) stop() {
	s.once.Do(func() {
		s.client.CloseIdleConnections()
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = s.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
	})
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// post sends one JSON body and returns the status, the X-Cache header and
// the response body, with the round trip's wall time.
func (s *server) post(ctx context.Context, path string, body []byte) (int, string, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	began := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, time.Since(began), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(began)
	if err != nil {
		return 0, "", nil, took, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, took, nil
}

// call posts a wire request, checks the status, the X-Cache class and the
// bound oracle, and returns the decoded answer with its body.
func (s *server) call(ctx context.Context, path string, w *wireRequest, wantCache string) (wireResponse, []byte, time.Duration, error) {
	var out wireResponse
	body, err := json.Marshal(w)
	if err != nil {
		return out, nil, 0, err
	}
	status, cache, data, took, err := s.post(ctx, path, body)
	if err != nil {
		return out, nil, took, err
	}
	if status != http.StatusOK {
		return out, nil, took, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	if cache != wantCache {
		return out, nil, took, fmt.Errorf("POST %s: X-Cache %q, want %q", path, cache, wantCache)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, nil, took, fmt.Errorf("POST %s: decoding response: %w", path, err)
	}
	if err := checkBound(out.TotalTime, out.LowerBound, out.OptimalProven); err != nil {
		return out, nil, took, fmt.Errorf("POST %s: %w", path, err)
	}
	return out, data, took, nil
}

// serverStats is the part of GET /stats the benchmark reports.
type serverStats struct {
	Cache service.Stats `json:"cache"`
}

func (s *server) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// firstLine is an io.Writer that hands the first complete line written to
// it to a channel and discards everything.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	line chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.sent = true
			f.line <- string(f.buf[:i])
			f.buf = nil
		}
	}
	return len(p), nil
}
