// Package hetsched is an adaptive communication scheduling library for
// distributed heterogeneous systems, reproducing Bhat, Prasanna &
// Raghavendra, "Adaptive Communication Algorithms for Distributed
// Heterogeneous Systems" (HPDC 1998).
//
// The library builds communication schedules for total exchange
// (all-to-all personalized communication) and its all-to-some subsets
// over networks whose pairwise latency and bandwidth differ and drift,
// as in metacomputing systems. Its four framework components mirror
// the paper's:
//
//   - a directory service supplying current pairwise performance
//     (package internal/directory, re-exported here);
//   - an analytical communication model, Tij + m/Bij (internal/model);
//   - timing diagrams representing schedules (internal/timing);
//   - scheduling algorithms placing events to minimize completion time
//     (internal/sched): the homogeneous caterpillar baseline, maximum-
//     and minimum-weight matching decompositions, a greedy O(P³)
//     approximation, and the open shop heuristic with its 2·t_lb
//     guarantee.
//
// A discrete-event simulator (internal/sim) executes schedules under
// the base model with FIFO receive arbitration, under the Section 6.1
// enhancements (interleaved receives with overhead α, finite receive
// buffers), and with Section 6.3 checkpoint rescheduling against
// drifting networks.
//
// This file is the surface the commands, the examples and the root
// Example tests use, and nothing else: facade_test.go fails on an
// exported name none of them references. Everything behind it
// (serving, execution, calibration, telemetry, fault injection, the
// extension studies) is reached through the internal packages.
//
// # Quick start
//
//	perf := hetsched.Gusto()                        // Table 1 & 2 data
//	m, _ := hetsched.BuildUniform(perf, 1<<20)      // 1 MB messages
//	res, _ := hetsched.OpenShop().Schedule(m)       // near-optimal schedule
//	fmt.Println(res.CompletionTime(), res.Ratio())  // vs. lower bound
//	fmt.Print(hetsched.RenderASCII(res.Schedule, hetsched.RenderOptions{}))
//
// See the examples directory for runnable programs and DESIGN.md for
// the experiment index.
package hetsched

import (
	"math/rand"

	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/exact"
	"hetsched/internal/indirect"
	"hetsched/internal/model"
	"hetsched/internal/multinet"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/sim"
	"hetsched/internal/staging"
	"hetsched/internal/timing"
	"hetsched/internal/workload"
)

// Network model types.
type (
	// PairPerf is the latency/bandwidth of one ordered processor pair.
	PairPerf = netmodel.PairPerf
	// Perf is a dense table of pairwise network performance.
	Perf = netmodel.Perf
	// GenConfig controls random performance generation.
	GenConfig = netmodel.GenConfig
)

// Communication model types.
type (
	// Matrix is a P×P communication-time matrix, C[i][j] = time i→j.
	Matrix = model.Matrix
	// Sizes is a P×P message-size matrix in bytes.
	Sizes = model.Sizes
)

// Timing-diagram types.
type (
	// Schedule is a timed communication schedule.
	Schedule = timing.Schedule
	// RenderOptions controls ASCII timing-diagram rendering.
	RenderOptions = timing.RenderOptions
	// SVGOptions controls RenderSVG.
	SVGOptions = timing.SVGOptions
)

// Scheduler types.
type (
	// Scheduler produces a total-exchange schedule from a Matrix.
	Scheduler = sched.Scheduler
	// Result is a scheduler's output with its lower bound.
	Result = sched.Result
)

// Directory service types.
type (
	// DirectoryStore is the in-memory performance directory.
	DirectoryStore = directory.Store
	// DirectoryServer exposes a store over TCP.
	DirectoryServer = directory.Server
)

// Simulator types.
type (
	// Plan is a per-sender send ordering executed by the simulator.
	Plan = sim.Plan
	// ExecResult is one simulated execution.
	ExecResult = sim.ExecResult
	// Network supplies transfer durations, possibly time-varying.
	Network = sim.Network
	// Epoch is one segment of a piecewise-constant network.
	Epoch = sim.Epoch
)

// GUSTO testbed data (Tables 1 and 2 of the paper).
var (
	// Gusto returns the 5-site GUSTO performance table.
	Gusto = netmodel.Gusto
	// GustoSites names the five GUSTO sites.
	GustoSites = netmodel.GustoSites
	// GustoGuided is the paper's random-generation configuration.
	GustoGuided = netmodel.GustoGuided
)

// RandomPerf draws a random pairwise performance table.
func RandomPerf(rng *rand.Rand, n int, cfg GenConfig) *Perf {
	return netmodel.RandomPerf(rng, n, cfg)
}

// ExampleTopology returns the three-site system of the paper's
// Figure 1 with the given hosts per site.
var ExampleTopology = netmodel.ExampleTopology

// DiurnalProfile returns a day/night sinusoidal load curve.
var DiurnalProfile = netmodel.DiurnalProfile

// SampleProfile applies a load profile to a base table at one time.
var SampleProfile = netmodel.SampleProfile

// Build constructs the communication matrix from performance and sizes.
func Build(perf *Perf, sizes *Sizes) (*Matrix, error) { return model.Build(perf, sizes) }

// BuildUniform is Build with every message the same size.
func BuildUniform(perf *Perf, size int64) (*Matrix, error) { return model.BuildUniform(perf, size) }

// UniformSizes returns a size matrix with one size everywhere.
func UniformSizes(n int, size int64) *Sizes { return model.UniformSizes(n, size) }

// ExampleMatrix returns the 5-processor running-example matrix.
func ExampleMatrix() *Matrix { return model.ExampleMatrix() }

// ParseMatrix reads a matrix in the text format.
var ParseMatrix = model.ParseString

// FormatMatrix renders a matrix in the text format.
var FormatMatrix = model.FormatString

// SchedulerByName looks a scheduler up by its Name.
func SchedulerByName(name string) (Scheduler, error) { return sched.ByName(name) }

// OpenShop returns the open shop heuristic scheduler (2·t_lb bound).
func OpenShop() Scheduler { return sched.NewOpenShop() }

// Compare runs every scheduler on the matrix.
func Compare(m *Matrix) ([]*Result, error) { return sched.Compare(m) }

// FormatComparison renders Compare results as a table.
var FormatComparison = sched.FormatComparison

// RenderASCII draws a schedule as a textual timing diagram.
var RenderASCII = timing.RenderASCII

// RenderSVG writes a schedule as a standalone SVG timing diagram.
var RenderSVG = timing.RenderSVG

// CriticalPath returns the longest tight dependence chain explaining a
// schedule's completion time.
var CriticalPath = timing.CriticalPath

// FormatCriticalPath renders a critical path one event per line.
var FormatCriticalPath = timing.FormatCriticalPath

// BottleneckProcessor returns the busiest processor and its utilization.
var BottleneckProcessor = timing.BottleneckProcessor

// Partial (all-to-some) patterns: the paper's data-staging-style
// subsets of the full exchange.
type PartialPattern = sched.Pattern

// PatternLowerBound is t_lb restricted to a pattern.
var PatternLowerBound = sched.PatternLowerBound

// PartialOpenShop schedules an arbitrary pattern with the open shop
// heuristic (within 2× the pattern lower bound).
var PartialOpenShop = sched.PartialOpenShop

// NewDirectory creates an in-memory directory store.
func NewDirectory(initial *Perf, names []string) (*DirectoryStore, error) {
	return directory.NewStore(initial, names)
}

// NewDirectoryServer wraps a store in a TCP server.
func NewDirectoryServer(store *DirectoryStore) *DirectoryServer { return directory.NewServer(store) }

// DialDirectory connects to a directory server.
var DialDirectory = directory.Dial

// PlanFromSchedule extracts a simulator plan from a schedule.
func PlanFromSchedule(s *Schedule, sizes *Sizes) (*Plan, error) {
	return sim.PlanFromSchedule(s, sizes)
}

// Simulate executes a plan on a static network under the base model.
func Simulate(perf *Perf, plan *Plan) (*ExecResult, error) {
	return sim.Run(sim.NewStatic(perf), plan)
}

// NewPiecewiseNetwork builds a network whose performance changes at
// fixed times.
var NewPiecewiseNetwork = sim.NewPiecewise

// SimulateInterleaved executes a plan under the Section 6.1
// interleaved-receive model with context-switch overhead alpha.
func SimulateInterleaved(net Network, plan *Plan, alpha float64) (*ExecResult, error) {
	return sim.RunInterleaved(net, plan, alpha)
}

// SimulateBuffered executes a plan under the Section 6.1 finite
// receive-buffer model.
func SimulateBuffered(net Network, plan *Plan, capacity int) (*ExecResult, error) {
	return sim.RunBuffered(net, plan, capacity)
}

// Checkpoint rescheduling (Section 6.3).
type (
	// CheckpointPolicy decides the dispatch budget between checkpoints.
	CheckpointPolicy = sim.CheckpointPolicy
	// Replanner reorders the remaining sends at a checkpoint.
	Replanner = sim.Replanner
	// NoCheckpoints runs the plan in one phase.
	NoCheckpoints = sim.NoCheckpoints
	// EveryEvents checkpoints after each batch of K transfers.
	EveryEvents = sim.EveryEvents
	// Halving checkpoints after half of the remaining events.
	Halving = sim.Halving
)

// KeepOrder is the identity replanner.
var KeepOrder = sim.KeepOrder

// ReplanOpenShop reschedules the tail with the open shop heuristic.
var ReplanOpenShop = sim.ReplanOpenShop

// SimulateCheckpointed executes a plan with checkpoint rescheduling.
var SimulateCheckpointed = sim.RunCheckpointed

// WorkloadServers is the Figure 12 message-size pattern: a few server
// processors send large messages, everyone else small ones.
const WorkloadServers = workload.Servers

// DefaultWorkload returns the paper's parameters for a kind and size.
var DefaultWorkload = workload.DefaultSpec

// WorkloadSizes generates a size matrix for a spec.
var WorkloadSizes = workload.Sizes

// TransposeSizes returns the matrix-transpose redistribution workload.
var TransposeSizes = workload.Transpose

// ExactOptions tunes the branch-and-bound search of SolveExact.
type ExactOptions = exact.Options

// SolveExact finds a minimum-makespan schedule by branch and bound;
// practical for P ≤ 5 (the problem is NP-complete, Theorem 1).
var SolveExact = exact.Solve

// Data staging (the BADD problem of Sections 2 and 6.4).
type (
	// StagingItem is a data item with its size and source machines.
	StagingItem = staging.Item
	// StagingRequest asks for an item at a destination by a deadline.
	StagingRequest = staging.Request
	// StagingProblem is a data staging instance.
	StagingProblem = staging.Problem
	// StagingPolicy selects staged relaying or direct-only shipping.
	StagingPolicy = staging.Policy
)

// Staging policies.
const (
	StagedDelivery = staging.Staged
	DirectDelivery = staging.DirectOnly
)

// ScheduleStaging satisfies data requests with the multiple-source
// shortest-path heuristic.
var ScheduleStaging = staging.Schedule

// Bruck schedules a log-round combine-and-forward total exchange —
// the indirect alternative the paper's Section 3.4 rejects for
// voluminous data (see EXPERIMENTS.md X12 for when each side wins).
var Bruck = indirect.Bruck

// MultiNetTechnique selects PBPS, aggregation, or the static baseline
// for a system whose host pairs share several networks (the related
// work the paper builds on).
type MultiNetTechnique = multinet.Technique

// Multi-network techniques.
const (
	SingleFastest  = multinet.SingleFastest
	UsePBPS        = multinet.UsePBPS
	UseAggregation = multinet.UseAggregation
)

// NewMultiNetSystem creates an n-host multi-network system.
var NewMultiNetSystem = multinet.NewSystem

// CommConfig tunes the application-level communicator, which plans
// exchanges from directory snapshots and re-serves a repeated one's
// plan while the network has not moved.
type CommConfig = comm.Config

// NewCommunicator creates a communicator over a performance source.
var NewCommunicator = comm.New

// StaticCommSource wraps a fixed table as a communicator source.
var StaticCommSource = comm.StaticSource
