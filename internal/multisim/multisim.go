// Package multisim co-simulates several DASH clients sharing one
// bottleneck link — the setting FESTIVE (the paper's reference [2]) was
// designed for: when players adapt independently on a shared cell,
// throughput-greedy policies oscillate and starve each other, and the
// interesting metrics are fairness (Jain's index across players) and
// stability (switch counts) rather than a single session's energy.
//
// The engine advances a global clock in fixed 0.1 s steps; at each
// step the bottleneck capacity is split evenly among the clients that
// are actively downloading (processor sharing, the standard
// TCP-fairness idealisation).
package multisim

import (
	"errors"
	"fmt"
	"strings"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/netsim"
	"ecavs/internal/player"
	"ecavs/internal/sim"
)

// Client is one player in the shared-link simulation.
type Client struct {
	// Name labels the client in results.
	Name string
	// Manifest is the video it streams.
	Manifest *dash.Manifest
	// Algorithm adapts its bitrate.
	Algorithm abr.Algorithm
	// StartOffsetSec delays the client's join (staggered arrivals).
	StartOffsetSec float64
}

// Config describes the shared-link scenario.
type Config struct {
	// Clients are the competing players.
	Clients []Client
	// CapacityMbps is the bottleneck capacity, split evenly among
	// active downloaders.
	CapacityMbps float64
}

// stepSec is the engine step.
const stepSec = 0.1

// ClientResult summarises one client's session.
type ClientResult struct {
	// Name echoes the client label.
	Name string
	// MeanBitrateMbps is the duration-weighted mean selected bitrate.
	MeanBitrateMbps float64
	// Switches counts rung changes.
	Switches int
	// RebufferSec is total stalling.
	RebufferSec float64
	// Rungs logs the per-segment choices.
	Rungs []int
}

// Result is the scenario outcome.
type Result struct {
	// Clients holds per-player results, in Config order.
	Clients []ClientResult
	// JainFairness is Jain's index over the clients' mean bitrates
	// (1 = perfectly fair).
	JainFairness float64
}

// Config validation errors.
var (
	ErrNoClients   = errors.New("multisim: no clients")
	ErrBadCapacity = errors.New("multisim: capacity must be positive")
)

// ErrIncomplete reports a run its time bound stopped before every
// client had fetched all of its segments. Run wraps it, naming each
// such client's delivered and total segment counts, and still returns
// the partial Result: its figures then describe only what was fetched.
var ErrIncomplete = errors.New("multisim: time bound reached before every client fetched its segments")

// clientState is the engine's per-client bookkeeping around the
// client's sim.Session.
type clientState struct {
	cfg  Client
	sess *sim.Session
	seg  int  // next segment to request
	done bool // all segments fetched

	// in-flight download
	downloading bool
	dec         sim.Decision
	remainMB    float64
	startedAt   float64

	rebufferSec float64 // stall until the last segment is fetched
	rungs       []int
}

// Run executes the scenario. Each client is a sim.NewEvalSession at the
// player's default buffer threshold, metered at the context its
// decisions see: a still phone at 0 dBm. The run stops once every
// session has played out, or at four times the longest video (join
// offset included) plus 120 s, whichever comes first. When that bound
// stops it before every client has fetched all of its segments, Run
// returns the partial Result together with an error wrapping
// ErrIncomplete.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Clients) == 0 {
		return nil, ErrNoClients
	}
	if cfg.CapacityMbps <= 0 {
		return nil, ErrBadCapacity
	}
	var longest float64
	states := make([]*clientState, 0, len(cfg.Clients))
	for i, c := range cfg.Clients {
		sess, err := sim.NewEvalSession(c.Manifest, c.Algorithm, player.DefaultBufferThresholdSec)
		if err != nil {
			return nil, fmt.Errorf("multisim: client %d: %w", i, err)
		}
		if d := c.Manifest.Video().DurationSec + c.StartOffsetSec; d > longest {
			longest = d
		}
		states = append(states, &clientState{cfg: c, sess: sess})
	}
	maxSim := longest*4 + 120

	now := 0.0
	for now < maxSim {
		allDone := true
		// Count active downloaders for the processor-sharing split.
		active := 0
		for _, st := range states {
			if st.downloading {
				active++
			}
		}
		shareMBps := cfg.CapacityMbps / 8
		if active > 0 {
			shareMBps = cfg.CapacityMbps / 8 / float64(active)
		}

		for _, st := range states {
			if now < st.cfg.StartOffsetSec {
				allDone = false
				continue // not joined yet
			}
			if st.done && st.sess.BufferSec() <= 1e-9 {
				continue // session fully played out
			}
			// Playback drains in real time, with the radio on while a
			// segment downloads.
			var stall float64
			if st.downloading {
				stall = st.sess.Transfer(stepSec, 0)
			} else {
				stall = st.sess.Play(stepSec)
			}
			allDone = false
			if st.done {
				continue
			}
			st.rebufferSec += stall

			if st.downloading {
				st.remainMB -= shareMBps * stepSec
				if st.remainMB <= 0 {
					st.downloading = false
					elapsed := now + stepSec - st.startedAt
					if elapsed <= 0 {
						elapsed = stepSec
					}
					sizeMB := st.dec.SegmentSizesMB[st.dec.Rung]
					st.sess.Deliver(&st.dec, st.dec.Rung, sizeMB,
						netsim.Result{DurationSec: elapsed, MeanThroughputMBps: sizeMB / elapsed})
					st.rungs = append(st.rungs, st.dec.Rung)
					st.seg++
					if st.seg >= st.cfg.Manifest.SegmentCount() {
						st.done = true
					}
				}
				continue
			}

			// Start the next download when pacing allows.
			if !st.sess.ShouldDownload() {
				continue
			}
			if err := st.sess.Decide(&st.dec, st.seg, now-st.cfg.StartOffsetSec, st.sess.BufferSec(), 0, 0); err != nil {
				return nil, fmt.Errorf("multisim: client %s: %w", st.cfg.Name, err)
			}
			st.downloading = true
			st.remainMB, st.startedAt = st.dec.SegmentSizesMB[st.dec.Rung], now
		}
		if allDone {
			break
		}
		now += stepSec
	}

	res := &Result{}
	bitrates := make([]float64, 0, len(states))
	var incomplete []string
	for _, st := range states {
		if !st.done {
			incomplete = append(incomplete, fmt.Sprintf("client %s fetched %d of %d segments",
				st.cfg.Name, st.seg, st.cfg.Manifest.SegmentCount()))
		}
		m := st.sess.Finish(nil)
		res.Clients = append(res.Clients, ClientResult{
			Name:            st.cfg.Name,
			MeanBitrateMbps: m.MeanBitrateMbps,
			Switches:        m.Switches,
			RebufferSec:     st.rebufferSec,
			Rungs:           st.rungs,
		})
		bitrates = append(bitrates, m.MeanBitrateMbps)
	}
	res.JainFairness = jain(bitrates)
	if incomplete != nil {
		return res, fmt.Errorf("%w (bound %.1f s): %s", ErrIncomplete, maxSim, strings.Join(incomplete, "; "))
	}
	return res, nil
}

// jain computes Jain's fairness index over xs.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
