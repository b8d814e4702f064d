// Package corebench measures the inference core's interactive hot
// path — strategy pick latency and full-session throughput — on large
// single-node instances, without the HTTP layer in the way. It drives
// complete oracle-answered sessions, timing every strategy pick, for
// both the incremental scorer and the from-scratch naive reference
// (strategy.Naive), and reports the speedup between them. cmd/jimbench
// -core wires it to BENCH_core.json, the evidence that the inference
// core scales to 10k-tuple instances at interactive latency; perfbench
// measures what the service layer adds on top.
package corebench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Config tunes one benchmark run.
type Config struct {
	// Workloads names the instances to measure (default
	// zipf,synthetic,star — the generators that scale).
	Workloads []string
	// Tuples is the instance size (default 10000).
	Tuples int
	// Strategies lists the strategies to measure (default the one-step
	// lookahead family, the scorers the refactor targets).
	Strategies []string
	// Sessions is how many full sessions are measured per strategy and
	// path (default 4; the first session warms nothing — state and
	// strategy are rebuilt per session).
	Sessions int
	// Baseline also measures the naive from-scratch reference and
	// reports speedups (default on; disable for quick runs).
	Baseline bool
	// StreamBatches is the batch count for the streaming-ingestion
	// benchmark: each workload instance is dripped into a live session
	// in this many appends while an oracle labels, timing every
	// State.Append against the rebuild-from-scratch alternative.
	// 0 picks the default of 16; negative disables the measurement.
	StreamBatches int
	// Procs, when non-empty, adds a GOMAXPROCS sweep: the first
	// configured strategy is re-measured on every workload at each
	// listed processor count, so the report tracks how the parallel
	// scorer scales with cores. GOMAXPROCS is restored afterwards.
	Procs []int
	// Seed drives instance generation and goal choice.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"zipf", "synthetic", "star"}
	}
	if c.Tuples <= 0 {
		c.Tuples = 10000
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []string{"lookahead-maxmin", "lookahead-expected", "lookahead-entropy"}
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.StreamBatches == 0 {
		c.StreamBatches = 16
	}
	return c
}

// Report is the machine-readable outcome of a run (BENCH_core.json).
type Report struct {
	Benchmark string           `json:"benchmark"`
	GoVersion string           `json:"go_version"`
	MaxProcs  int              `json:"gomaxprocs"`
	Tuples    int              `json:"tuples"`
	Sessions  int              `json:"sessions_per_strategy"`
	Workloads []WorkloadReport `json:"workloads"`
	// Streams measures streaming ingestion per workload: the same
	// instances dripped into live sessions batch by batch.
	Streams []StreamReport `json:"streams,omitempty"`
	// ProcsSweep re-measures the first strategy at each requested
	// GOMAXPROCS, per workload — the scaling curve of the parallel
	// scorer.
	ProcsSweep []ProcsEntry `json:"procs_sweep,omitempty"`
}

// ProcsEntry is one point of the GOMAXPROCS scaling sweep.
type ProcsEntry struct {
	Procs          int     `json:"procs"`
	Workload       string  `json:"workload"`
	Strategy       string  `json:"strategy"`
	PickMeanMicros float64 `json:"pick_mean_us"`
	PickP95Micros  float64 `json:"pick_p95_us"`
	PicksPerSec    float64 `json:"picks_per_sec"`
	// SpeedupVs1 is the single-proc mean pick latency of the same
	// workload over this entry's — present when the sweep includes 1.
	SpeedupVs1 float64 `json:"speedup_vs_1proc,omitempty"`
}

// StreamReport measures streaming ingestion for one workload: the
// instance arrives in batches into a live labeled session, and every
// State.Append is timed against the rebuild-from-scratch alternative
// (fresh NewState over the grown prefix + explicit-label replay — what
// a build-once stack would pay per arrival batch). Amortized-
// incremental ingestion shows up as append latencies orders of
// magnitude below the rebuild mean and sublinear in instance size.
type StreamReport struct {
	Workload string `json:"workload"`
	Tuples   int    `json:"tuples"`
	Initial  int    `json:"initial_tuples"`
	Batches  int    `json:"batches"`
	Appended int    `json:"appended_tuples"`
	// Questions is how many oracle labels the session consumed while
	// the instance grew (appends interleave with the labeling loop).
	Questions          int     `json:"questions"`
	AppendMeanMicros   float64 `json:"append_mean_us"`
	AppendP50Micros    float64 `json:"append_p50_us"`
	AppendP95Micros    float64 `json:"append_p95_us"`
	AppendMaxMicros    float64 `json:"append_max_us"`
	TuplesPerSecIngest float64 `json:"append_tuples_per_sec"`
	// RebuildMeanMicros is the mean cost of rebuilding from scratch at
	// the same batch points; Speedup = rebuild mean / append mean.
	RebuildMeanMicros float64 `json:"rebuild_mean_us"`
	Speedup           float64 `json:"append_speedup_vs_rebuild"`
}

// WorkloadReport aggregates one instance's measurements.
type WorkloadReport struct {
	Workload string           `json:"workload"`
	Tuples   int              `json:"tuples"`
	Attrs    int              `json:"attrs"`
	Classes  int              `json:"signature_classes"`
	Results  []StrategyReport `json:"strategies"`
}

// StrategyReport compares the incremental scorer against the naive
// reference for one strategy.
type StrategyReport struct {
	Strategy    string     `json:"strategy"`
	Incremental PathStats  `json:"incremental"`
	Naive       *PathStats `json:"naive,omitempty"`
	// PickSpeedup is naive mean pick latency over incremental mean pick
	// latency — the pick-throughput improvement of the refactor.
	PickSpeedup float64 `json:"pick_speedup,omitempty"`
}

// PathStats summarizes the measured sessions of one scoring path.
type PathStats struct {
	Sessions       int     `json:"sessions"`
	Questions      int     `json:"questions"`
	Picks          int     `json:"picks"`
	PickMeanMicros float64 `json:"pick_mean_us"`
	PickP50Micros  float64 `json:"pick_p50_us"`
	PickP95Micros  float64 `json:"pick_p95_us"`
	PickP99Micros  float64 `json:"pick_p99_us"`
	PickMaxMicros  float64 `json:"pick_max_us"`
	PicksPerSec    float64 `json:"picks_per_sec"`
	SessionSeconds float64 `json:"session_seconds_total"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
}

// Run executes the benchmark, printing one progress line per
// workload/strategy to w (nil discards them).
func Run(w io.Writer, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if w == nil {
		w = io.Discard
	}
	rep := &Report{
		Benchmark: "jim-core-pick",
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Tuples:    cfg.Tuples,
		Sessions:  cfg.Sessions,
	}
	for _, wl := range cfg.Workloads {
		rel, goal, err := workload.Instance(wl, workload.InstanceConfig{Tuples: cfg.Tuples, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		st, err := core.NewState(rel)
		if err != nil {
			return nil, err
		}
		wr := WorkloadReport{
			Workload: wl,
			Tuples:   rel.Len(),
			Attrs:    rel.Schema().Len(),
			Classes:  st.ClassCount(),
		}
		for _, name := range cfg.Strategies {
			sr := StrategyReport{Strategy: name}
			inc, err := measure(rel, goal, cfg.Sessions, func() (core.Picker, error) {
				return strategy.ByName(name, cfg.Seed)
			})
			if err != nil {
				return nil, fmt.Errorf("corebench: %s/%s incremental: %w", wl, name, err)
			}
			sr.Incremental = inc
			if cfg.Baseline {
				nv, err := measure(rel, goal, cfg.Sessions, func() (core.Picker, error) {
					return strategy.Naive(name, cfg.Seed)
				})
				if err != nil {
					return nil, fmt.Errorf("corebench: %s/%s naive: %w", wl, name, err)
				}
				sr.Naive = &nv
				if inc.PickMeanMicros > 0 {
					sr.PickSpeedup = round2(nv.PickMeanMicros / inc.PickMeanMicros)
				}
				fmt.Fprintf(w, "%-10s %-19s %4d classes  pick p95 %8.1fµs (naive %10.1fµs)  %8.0f picks/s  speedup %6.1fx\n",
					wl, name, wr.Classes, inc.PickP95Micros, nv.PickP95Micros, inc.PicksPerSec, sr.PickSpeedup)
			} else {
				fmt.Fprintf(w, "%-10s %-19s %4d classes  pick p95 %8.1fµs  %8.0f picks/s\n",
					wl, name, wr.Classes, inc.PickP95Micros, inc.PicksPerSec)
			}
			wr.Results = append(wr.Results, sr)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if cfg.StreamBatches > 0 {
		for _, wl := range cfg.Workloads {
			sr, err := measureStream(wl, cfg)
			if err != nil {
				return nil, fmt.Errorf("corebench: %s stream: %w", wl, err)
			}
			fmt.Fprintf(w, "%-10s %-19s %4d batches  append p95 %8.1fµs (rebuild %10.1fµs)  %8.0f tuples/s  speedup %6.1fx\n",
				wl, "stream-ingest", sr.Batches, sr.AppendP95Micros, sr.RebuildMeanMicros, sr.TuplesPerSecIngest, sr.Speedup)
			rep.Streams = append(rep.Streams, *sr)
		}
	}
	if len(cfg.Procs) > 0 {
		sweep, err := measureProcs(w, cfg)
		if err != nil {
			return nil, err
		}
		rep.ProcsSweep = sweep
	}
	return rep, nil
}

// measureProcs re-runs the pick measurement for the first configured
// strategy at each requested GOMAXPROCS. The scorer's worker pool sizes
// its dispatch to the live GOMAXPROCS, so lowering it measures the
// sequential path and raising it the fan-out; the process value is
// restored before returning.
func measureProcs(w io.Writer, cfg Config) ([]ProcsEntry, error) {
	name := cfg.Strategies[0]
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	baseline := make(map[string]float64) // workload -> 1-proc mean
	var sweep []ProcsEntry
	for _, procs := range cfg.Procs {
		if procs < 1 {
			return nil, fmt.Errorf("corebench: procs sweep values must be >= 1, got %d", procs)
		}
		runtime.GOMAXPROCS(procs)
		for _, wl := range cfg.Workloads {
			rel, goal, err := workload.Instance(wl, workload.InstanceConfig{Tuples: cfg.Tuples, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			stats, err := measure(rel, goal, cfg.Sessions, func() (core.Picker, error) {
				return strategy.ByName(name, cfg.Seed)
			})
			if err != nil {
				return nil, fmt.Errorf("corebench: %s/%s at %d procs: %w", wl, name, procs, err)
			}
			e := ProcsEntry{
				Procs:          procs,
				Workload:       wl,
				Strategy:       name,
				PickMeanMicros: stats.PickMeanMicros,
				PickP95Micros:  stats.PickP95Micros,
				PicksPerSec:    stats.PicksPerSec,
			}
			if procs == 1 {
				baseline[wl] = stats.PickMeanMicros
			}
			if base, ok := baseline[wl]; ok && stats.PickMeanMicros > 0 {
				e.SpeedupVs1 = round2(base / stats.PickMeanMicros)
			}
			fmt.Fprintf(w, "%-10s %-19s %4d procs    pick p95 %8.1fµs  %8.0f picks/s  speedup %6.1fx\n",
				wl, name, procs, e.PickP95Micros, e.PicksPerSec, e.SpeedupVs1)
			sweep = append(sweep, e)
		}
	}
	return sweep, nil
}

// measureStream drives one streaming session: the workload instance
// arrives in cfg.StreamBatches appends while an oracle labels a few
// questions between batches, then the session drains to convergence.
// Every Append is timed; at each batch point the rebuild-from-scratch
// alternative is timed too (outside the session, on a throwaway copy).
func measureStream(wl string, cfg Config) (*StreamReport, error) {
	stream, err := workload.NewStream(wl, workload.StreamConfig{
		Tuples: cfg.Tuples, Batches: cfg.StreamBatches, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	picker, err := strategy.ByName("lookahead-maxmin", cfg.Seed)
	if err != nil {
		return nil, err
	}
	st, err := core.NewState(stream.Initial.Clone())
	if err != nil {
		return nil, err
	}
	sr := &StreamReport{
		Workload: wl,
		Tuples:   stream.TotalTuples(),
		Initial:  stream.Initial.Len(),
		Batches:  len(stream.Batches),
	}
	label := func() (bool, error) {
		i, ok := picker.Pick(st)
		if !ok {
			return false, nil
		}
		l := core.Negative
		if core.Selects(stream.Goal, st.Relation().Tuple(i)) {
			l = core.Positive
		}
		if _, err := st.Apply(i, l); err != nil {
			return false, err
		}
		sr.Questions++
		return true, nil
	}
	var appendTimes []time.Duration
	var rebuildTotal time.Duration
	for _, batch := range stream.Batches {
		t0 := time.Now()
		if _, err := st.Append(batch); err != nil {
			return nil, err
		}
		appendTimes = append(appendTimes, time.Since(t0))
		sr.Appended += len(batch)
		t0 = time.Now()
		if _, err := strategy.RebuildFromScratch(st); err != nil {
			return nil, err
		}
		rebuildTotal += time.Since(t0)
		// A few labels between batches keep the hypothesis moving, so
		// appends are measured against a live mid-session state.
		for q := 0; q < 3; q++ {
			if ok, err := label(); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	for steps := 0; !st.Done(); steps++ {
		if steps > sr.Tuples {
			return nil, fmt.Errorf("streamed session exceeded %d questions without converging", sr.Tuples)
		}
		if ok, err := label(); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := st.CheckInvariants(); err != nil {
		return nil, err
	}
	if len(appendTimes) == 0 {
		// Instance too small to carve any batch (tiny -tuples runs):
		// nothing to time, report the zeroed stats rather than divide
		// by an empty sample.
		return sr, nil
	}
	var appendTotal time.Duration
	for _, d := range appendTimes {
		appendTotal += d
	}
	sort.Slice(appendTimes, func(i, j int) bool { return appendTimes[i] < appendTimes[j] })
	at := func(p float64) float64 {
		return micros(appendTimes[int(p*float64(len(appendTimes)-1)+0.5)])
	}
	sr.AppendMeanMicros = round2(micros(appendTotal) / float64(len(appendTimes)))
	sr.AppendP50Micros = round2(at(0.50))
	sr.AppendP95Micros = round2(at(0.95))
	sr.AppendMaxMicros = round2(micros(appendTimes[len(appendTimes)-1]))
	if appendTotal > 0 {
		sr.TuplesPerSecIngest = round2(float64(sr.Appended) / appendTotal.Seconds())
	}
	sr.RebuildMeanMicros = round2(micros(rebuildTotal) / float64(len(stream.Batches)))
	if sr.AppendMeanMicros > 0 {
		sr.Speedup = round2(sr.RebuildMeanMicros / sr.AppendMeanMicros)
	}
	return sr, nil
}

// measure runs full sessions to convergence with a fresh state and
// picker per session, timing each pick. The oracle answers by the
// goal, outside the timed region.
func measure(rel *relation.Relation, goal partition.P, sessions int, mk func() (core.Picker, error)) (PathStats, error) {
	var stats PathStats
	var pickTimes []time.Duration
	for s := 0; s < sessions; s++ {
		picker, err := mk()
		if err != nil {
			return stats, err
		}
		st, err := core.NewState(rel)
		if err != nil {
			return stats, err
		}
		sessionStart := time.Now()
		for steps := 0; !st.Done(); steps++ {
			if steps > rel.Len() {
				return stats, fmt.Errorf("session exceeded %d questions without converging", rel.Len())
			}
			t0 := time.Now()
			i, ok := picker.Pick(st)
			pickTimes = append(pickTimes, time.Since(t0))
			stats.Picks++
			if !ok {
				break
			}
			l := core.Negative
			if core.Selects(goal, rel.Tuple(i)) {
				l = core.Positive
			}
			if _, err := st.Apply(i, l); err != nil {
				return stats, err
			}
			stats.Questions++
		}
		stats.SessionSeconds += time.Since(sessionStart).Seconds()
		stats.Sessions++
	}
	var total time.Duration
	for _, d := range pickTimes {
		total += d
	}
	if len(pickTimes) > 0 {
		stats.PickMeanMicros = micros(total) / float64(len(pickTimes))
		sort.Slice(pickTimes, func(i, j int) bool { return pickTimes[i] < pickTimes[j] })
		at := func(p float64) float64 {
			return micros(pickTimes[int(p*float64(len(pickTimes)-1)+0.5)])
		}
		stats.PickP50Micros = round2(at(0.50))
		stats.PickP95Micros = round2(at(0.95))
		stats.PickP99Micros = round2(at(0.99))
		stats.PickMaxMicros = round2(micros(pickTimes[len(pickTimes)-1]))
		stats.PickMeanMicros = round2(stats.PickMeanMicros)
	}
	if total > 0 {
		stats.PicksPerSec = round2(float64(stats.Picks) / total.Seconds())
	}
	if stats.SessionSeconds > 0 {
		stats.SessionsPerSec = round2(float64(stats.Sessions) / stats.SessionSeconds)
	}
	stats.SessionSeconds = round2(stats.SessionSeconds)
	return stats, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
