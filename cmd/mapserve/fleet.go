package main

// Fleet mode: the peer-forwarding wire layer. A replica that misses its
// local cache on a fingerprint another peer owns re-posts the request to
// the owner's POST /fleet/solve over the existing JSON wire format (the
// solveRequest shape plus the fields only fleet hops need), and rebuilds a
// *mimdmap.Response from the owner's solveResponse body. The owner handles
// a forwarded request exactly like a client request except LocalOnly is
// forced on, so ownership disagreements during a rolling restart degrade
// to an extra local solve instead of a forwarding loop.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mimdmap"
	"mimdmap/internal/fleet"
	"mimdmap/internal/service"
)

// forwardRequest is the wire form of POST /fleet/solve: a solveRequest
// plus the request state only peer hops carry — the projected incumbent of
// a warm-started remap, and the no-shed marker of job-initiated work (a
// job was admitted once by its store and must not bounce off the owner's
// admission queue).
type forwardRequest struct {
	solveRequest
	// Incumbent is Options.Incumbent's assignment array (warm starts).
	Incumbent []int `json:"incumbent,omitempty"`
	// NoShed preserves patient admission across the hop.
	NoShed bool `json:"no_shed,omitempty"`
}

// toForwardWire projects a solver request onto the forwarding wire form.
// It reports false — the hook then declines and the pipeline solves
// locally — for request state the wire cannot carry: injected delay/
// distance tables, live generators or refiner instances, and option knobs
// the public wire format has no field for. Everything cmd/mapserve itself
// can build from a wire request is representable.
func toForwardWire(req *mimdmap.Request) (*forwardRequest, bool) {
	o := &req.Options
	if o.Rand != nil || o.Refiner != nil || o.Delays != nil || o.Dist != nil {
		return nil, false
	}
	if o.DisableTermination || o.RecordTrials || o.Seed != 0 {
		return nil, false
	}
	if o.Propagation != mimdmap.PaperPropagation && o.Propagation != mimdmap.FullPropagation {
		return nil, false
	}
	if req.NoCache || req.OmitSchedule || req.Problem == nil {
		return nil, false
	}
	wire := &forwardRequest{NoShed: req.NoShed}
	var text strings.Builder
	if err := mimdmap.WriteProblem(&text, req.Problem); err != nil {
		return nil, false
	}
	wire.Problem = text.String()
	if req.System != nil {
		text.Reset()
		if err := mimdmap.WriteSystem(&text, req.System); err != nil {
			return nil, false
		}
		wire.System = text.String()
	} else {
		wire.Topology = req.Topology
	}
	if req.Clustering != nil {
		text.Reset()
		if err := mimdmap.WriteClustering(&text, req.Clustering); err != nil {
			return nil, false
		}
		wire.Clustering = text.String()
	} else {
		wire.Clusterer = req.Clusterer
	}
	wire.Refiner = req.Refiner
	wire.Seed = req.Seed
	wire.Starts = o.Starts
	wire.Refinements = o.MaxRefinements
	wire.FullPropagation = o.Propagation == mimdmap.FullPropagation
	wire.PortfolioRounds = o.PortfolioRounds
	wire.PortfolioArms = strings.Join(o.PortfolioArms, ",")
	if o.Incumbent != nil {
		wire.Incumbent = o.Incumbent.ProcOf
	}
	return wire, true
}

// toForwardRequest rebuilds the solver request a forwarded wire body
// describes, marking it LocalOnly — a forwarded request must never hop
// again.
func toForwardRequest(wire *forwardRequest, workers int) (*mimdmap.Request, error) {
	req, err := toRequest(&wire.solveRequest, workers)
	if err != nil {
		return nil, err
	}
	if wire.Incumbent != nil {
		req.Options.Incumbent = mimdmap.FromPerm(wire.Incumbent)
	}
	req.NoShed = wire.NoShed
	req.LocalOnly = true
	return req, nil
}

// fromWireResponse rebuilds a solver response from the owner's wire body.
// The reconstruction carries exactly the wire-visible state — result,
// schedule times, diagnostics — plus the requester's own graphs; in-memory
// extras a local solve would have (ideal graph, critical analysis, latest
// tasks, resolved System for topology specs) are absent, which is fine for
// every consumer of a cached response: the wire projection toWire reads
// none of them, so served bodies stay byte-identical to a local solve.
func fromWireResponse(wire *solveResponse, req *mimdmap.Request) *mimdmap.Response {
	return &mimdmap.Response{
		Result: &mimdmap.Result{
			Assignment:       mimdmap.FromPerm(wire.Assignment),
			TotalTime:        wire.TotalTime,
			LowerBound:       wire.LowerBound,
			InitialTotalTime: wire.InitialTotalTime,
			Refinements:      wire.Refinements,
			Improved:         wire.Improved,
			OptimalProven:    wire.OptimalProven,
			Chain:            wire.Chain,
		},
		Schedule: &mimdmap.Schedule{
			Start:     wire.Start,
			End:       wire.End,
			TotalTime: wire.TotalTime,
		},
		Problem:    req.Problem,
		System:     req.System,
		Clustering: req.Clustering,
		Diagnostics: mimdmap.Diagnostics{
			Machine:       wire.Machine,
			Nodes:         wire.Nodes,
			Clusterer:     wire.Clusterer,
			Refiner:       wire.Refiner,
			WarmStart:     wire.WarmStart,
			Similarity:    wire.Similarity,
			WinningArm:    wire.WinningArm,
			PortfolioArms: wire.PortfolioArms,
		},
	}
}

// forwardErrBody bounds how much of a peer error body travels into the error.
const forwardErrBody = 512

// newForwardHook builds the Solver.Forward hook for fleet mode: ring-route
// the fingerprint, decline when this replica owns it (or the request cannot
// travel), otherwise POST it to the owner and rebuild the response. Any
// failure — peer down, peer shedding, undecodable body — comes back as an
// error, which the pipeline counts and converts into a local solve, so a
// mid-restart fleet degrades to independent replicas instead of failing
// requests.
func newForwardHook(ring *fleet.Ring, client *http.Client) service.ForwardFunc {
	if client == nil {
		client = &http.Client{}
	}
	return func(ctx context.Context, key string, req *mimdmap.Request) (*mimdmap.Response, string, error) {
		owner := ring.Owner(key)
		if owner == ring.Self() {
			return nil, "", nil
		}
		wire, ok := toForwardWire(req)
		if !ok {
			return nil, "", nil
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, "", nil
		}
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/fleet/solve", bytes.NewReader(body))
		if err != nil {
			return nil, "", fmt.Errorf("peer %s: %w", owner, err)
		}
		httpReq.Header.Set("Content-Type", "application/json")
		httpResp, err := client.Do(httpReq)
		if err != nil {
			return nil, "", fmt.Errorf("peer %s: %w", owner, err)
		}
		defer httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, forwardErrBody))
			return nil, "", fmt.Errorf("peer %s: status %d: %s", owner, httpResp.StatusCode, bytes.TrimSpace(msg))
		}
		var out solveResponse
		dec := json.NewDecoder(io.LimitReader(httpResp.Body, maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out); err != nil {
			return nil, "", fmt.Errorf("peer %s: bad response body: %w", owner, err)
		}
		return fromWireResponse(&out, req), owner, nil
	}
}

// parsePeers splits the -peers flag into a canonical peer list: trimmed,
// trailing-slash-free base URLs.
func parsePeers(flagVal string) []string {
	if strings.TrimSpace(flagVal) == "" {
		return nil
	}
	var peers []string
	for _, p := range strings.Split(flagVal, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// fleetStats is the fleet section of GET /stats.
type fleetStats struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
	// Forwarded / ForwardErrors / LocalExecutions split where this
	// replica's cache fills came from: the owning peer, a failed hop that
	// fell back to local execution, or plain local solving.
	Forwarded       uint64 `json:"forwarded"`
	ForwardErrors   uint64 `json:"forward_errors"`
	LocalExecutions uint64 `json:"local_executions"`
}

// defaultForwardTimeout bounds one peer hop when the inbound request
// carries no deadline of its own: an unreachable owner must not hold the
// client for the kernel's full TCP patience before the local fallback.
const defaultForwardTimeout = 30 * time.Second
