// Package hetsched is an adaptive communication scheduling library for
// distributed heterogeneous systems, reproducing Bhat, Prasanna &
// Raghavendra, "Adaptive Communication Algorithms for Distributed
// Heterogeneous Systems" (HPDC 1998).
//
// The library builds communication schedules for collective patterns —
// above all total exchange (all-to-all personalized communication) —
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
// drifting networks. Extensions cover QoS deadline scheduling,
// critical-resource scheduling, incremental schedule repair, and other
// collectives (broadcast, scatter/gather, all-gather).
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

	"hetsched/internal/calib"
	"hetsched/internal/collective"
	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/exact"
	"hetsched/internal/exec"
	"hetsched/internal/faults"
	"hetsched/internal/incremental"
	"hetsched/internal/indirect"
	"hetsched/internal/model"
	"hetsched/internal/multinet"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/qos"
	"hetsched/internal/sched"
	"hetsched/internal/serve"
	"hetsched/internal/sim"
	"hetsched/internal/staging"
	"hetsched/internal/timing"
	"hetsched/internal/trace"
	"hetsched/internal/workload"
)

// Network model types.
type (
	// PairPerf is the latency/bandwidth of one ordered processor pair.
	PairPerf = netmodel.PairPerf
	// Perf is a dense table of pairwise network performance.
	Perf = netmodel.Perf
	// Topology is a multi-site network with routed paths.
	Topology = netmodel.Topology
	// Site is one location in a Topology.
	Site = netmodel.Site
	// Link is a network segment in a Topology.
	Link = netmodel.Link
	// GenConfig controls random performance generation.
	GenConfig = netmodel.GenConfig
	// Drift parameterizes the bounded bandwidth random walk.
	Drift = netmodel.Drift
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
	// Event is one communication occupying [Start, Finish).
	Event = timing.Event
	// Schedule is a timed communication schedule.
	Schedule = timing.Schedule
	// StepSchedule is a schedule organized as contention-free steps.
	StepSchedule = timing.StepSchedule
	// Pair is an unscheduled (sender, receiver) communication.
	Pair = timing.Pair
	// RenderOptions controls ASCII timing-diagram rendering.
	RenderOptions = timing.RenderOptions
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
	// DirectoryClient queries a directory server.
	DirectoryClient = directory.Client
	// Feeder publishes synthetic load drift into a store.
	Feeder = directory.Feeder
	// ResilientDirectoryClient retries, reconnects, and serves stale
	// snapshots when the server is unreachable.
	ResilientDirectoryClient = directory.ResilientClient
	// ResilientConfig tunes a ResilientDirectoryClient.
	ResilientConfig = directory.ResilientConfig
	// SnapshotMeta reports a snapshot's version and staleness.
	SnapshotMeta = directory.SnapshotMeta
	// ResilientCounters counts retries, reconnects, and stale serves.
	ResilientCounters = directory.ResilientCounters
)

// NewResilientClient creates a fault-tolerant directory client.
var NewResilientClient = directory.NewResilientClient

// Directory failure sentinels, testable with errors.Is.
var (
	// ErrDirectoryBroken marks a client whose connection died; call
	// Reconnect (ResilientDirectoryClient does so automatically).
	ErrDirectoryBroken = directory.ErrBroken
	// ErrDirectoryUnavailable wraps transport-level failures.
	ErrDirectoryUnavailable = directory.ErrUnavailable
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

// NewTopology builds a multi-site topology; add backbone links with
// Topology.ConnectSites.
func NewTopology(sites []Site) *Topology { return netmodel.NewTopology(sites) }

// ExampleTopology returns the three-site system of the paper's
// Figure 1 with the given hosts per site.
var ExampleTopology = netmodel.ExampleTopology

// NewWalker starts a bounded bandwidth random walk over a base table.
var NewWalker = netmodel.NewWalker

// DefaultDrift is a moderate synthetic load model (±10% per step).
var DefaultDrift = netmodel.DefaultDrift

// LoadProfile maps (src, dst, time) to a bandwidth multiplier.
type LoadProfile = netmodel.Profile

// DiurnalProfile returns a day/night sinusoidal load curve.
var DiurnalProfile = netmodel.DiurnalProfile

// SampleProfile applies a load profile to a base table at one time.
var SampleProfile = netmodel.SampleProfile

// ProfileSeries samples a profile at increasing times, one table each.
var ProfileSeries = netmodel.ProfileSeries

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

// Schedulers returns one instance of every total-exchange scheduler.
func Schedulers() []Scheduler { return sched.All() }

// SchedulerByName looks a scheduler up by its Name.
func SchedulerByName(name string) (Scheduler, error) { return sched.ByName(name) }

// Baseline returns the caterpillar baseline scheduler.
func Baseline() Scheduler { return sched.Baseline{} }

// BaselineBarrier returns the lockstep caterpillar scheduler.
func BaselineBarrier() Scheduler { return sched.BaselineBarrier{} }

// MaxMatching returns the maximum-weight matching scheduler.
func MaxMatching() Scheduler { return sched.MaxMatching{} }

// MinMatching returns the minimum-weight matching scheduler.
func MinMatching() Scheduler { return sched.MinMatching{} }

// Greedy returns the O(P³) greedy scheduler with fairness rotation.
func Greedy() Scheduler { return sched.NewGreedy() }

// OpenShop returns the open shop heuristic scheduler (2·t_lb bound).
func OpenShop() Scheduler { return sched.NewOpenShop() }

// MultiStartOpenShop returns a best-of-8 open shop scheduler with
// randomized tie-breaking, never worse than the deterministic one.
func MultiStartOpenShop(seed int64) Scheduler { return sched.NewMultiStartOpenShop(seed) }

// Compare runs every scheduler on the matrix.
func Compare(m *Matrix) ([]*Result, error) { return sched.Compare(m) }

// FormatComparison renders Compare results as a table.
var FormatComparison = sched.FormatComparison

// RenderASCII draws a schedule as a textual timing diagram.
var RenderASCII = timing.RenderASCII

// CriticalLink is one hop of a schedule's critical dependence chain.
type CriticalLink = timing.CriticalLink

// CriticalPath returns the longest tight dependence chain explaining a
// schedule's completion time.
var CriticalPath = timing.CriticalPath

// FormatCriticalPath renders a critical path one event per line.
var FormatCriticalPath = timing.FormatCriticalPath

// Utilization reports per-processor send/receive port busy fractions.
var Utilization = timing.Utilization

// BottleneckProcessor returns the busiest processor and its utilization.
var BottleneckProcessor = timing.BottleneckProcessor

// Multi-network point-to-point techniques (PBPS and aggregation, from
// the related work the paper builds on).
type (
	// MultiNetSystem is a system whose host pairs share several networks.
	MultiNetSystem = multinet.System
	// MultiNetTechnique selects PBPS, aggregation, or the static baseline.
	MultiNetTechnique = multinet.Technique
)

// Multi-network techniques.
const (
	SingleFastest  = multinet.SingleFastest
	UsePBPS        = multinet.UsePBPS
	UseAggregation = multinet.UseAggregation
)

// NewMultiNetSystem creates an n-host multi-network system.
var NewMultiNetSystem = multinet.NewSystem

// SVGOptions controls RenderSVG.
type SVGOptions = timing.SVGOptions

// RenderSVG writes a schedule as a standalone SVG timing diagram.
var RenderSVG = timing.RenderSVG

// MarshalPerf encodes a performance table (and optional names) as JSON.
var MarshalPerf = netmodel.MarshalPerf

// UnmarshalPerf decodes a table written by MarshalPerf.
var UnmarshalPerf = netmodel.UnmarshalPerf

// Partial (all-to-some) patterns: the paper's data-staging-style
// subsets of the full exchange.
type PartialPattern = sched.Pattern

// PatternLowerBound is t_lb restricted to a pattern.
var PatternLowerBound = sched.PatternLowerBound

// TotalExchangePattern returns the full all-to-all pattern.
var TotalExchangePattern = sched.TotalExchangePattern

// PartialOpenShop schedules an arbitrary pattern with the open shop
// heuristic (within 2× the pattern lower bound).
var PartialOpenShop = sched.PartialOpenShop

// PartialMatching schedules an arbitrary pattern by extremal-matching
// decomposition.
var PartialMatching = sched.PartialMatching

// PartialGreedy schedules an arbitrary pattern with the greedy lists.
var PartialGreedy = sched.PartialGreedy

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

// NewStaticNetwork wraps a performance table as a time-invariant
// simulator network.
func NewStaticNetwork(perf *Perf) Network { return sim.NewStatic(perf) }

// NewPiecewiseNetwork builds a network whose performance changes at
// fixed times.
var NewPiecewiseNetwork = sim.NewPiecewise

// SimulateOn executes a plan on any simulator network.
func SimulateOn(net Network, plan *Plan) (*ExecResult, error) { return sim.Run(net, plan) }

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
	// CheckpointResult reports a checkpointed execution.
	CheckpointResult = sim.CheckpointResult
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

// ReactiveResult reports a fault-reactive checkpointed execution.
type ReactiveResult = sim.ReactiveResult

// SimulateReactive executes a plan with checkpoint rescheduling that
// re-plans only when a known fault time falls inside the window just
// executed (mid-run link degradation or failure).
var SimulateReactive = sim.RunReactive

// Recording is a replayable time series of network conditions.
type Recording = trace.Recording

// NewRecording creates an empty recording.
var NewRecording = trace.New

// RecordWalker samples a bandwidth random walk into a recording.
var RecordWalker = trace.RecordWalker

// RecordProfile samples a load profile into a recording.
var RecordProfile = trace.RecordProfile

// Workload generation (the paper's evaluation patterns).
type (
	// WorkloadKind selects a message-size pattern.
	WorkloadKind = workload.Kind
	// WorkloadSpec parameterizes generation.
	WorkloadSpec = workload.Spec
)

// Workload kinds, matching Figures 9-12.
const (
	WorkloadSmall   = workload.Small
	WorkloadLarge   = workload.Large
	WorkloadMixed   = workload.Mixed
	WorkloadServers = workload.Servers
)

// DefaultWorkload returns the paper's parameters for a kind and size.
var DefaultWorkload = workload.DefaultSpec

// WorkloadSizes generates a size matrix for a spec.
var WorkloadSizes = workload.Sizes

// TransposeSizes returns the matrix-transpose redistribution workload.
var TransposeSizes = workload.Transpose

// QoS extension (Section 6.4).
type (
	// QoSMessage is a communication with deadline and priority.
	QoSMessage = qos.Message
	// QoSProblem is a deadline-constrained message set.
	QoSProblem = qos.Problem
	// QoSResult is a QoS schedule with metrics.
	QoSResult = qos.Result
)

// ScheduleQoS sequences messages under a policy (qos.EDF or
// qos.MakespanOnly re-exported below).
var ScheduleQoS = qos.Schedule

// QoS policies.
const (
	EDF          = qos.EDF
	MakespanOnly = qos.MakespanOnly
)

// ScheduleCritical builds a schedule releasing one processor earliest.
var ScheduleCritical = qos.ScheduleCritical

// RefineSchedule incrementally repairs a step schedule after partial
// cost changes (Section 6.2).
var RefineSchedule = incremental.Refine

// Exact solving for small instances (the problem is NP-complete,
// Theorem 1).
type (
	// ExactOptions tunes the branch-and-bound search.
	ExactOptions = exact.Options
	// ExactResult is the solver's output.
	ExactResult = exact.Result
)

// SolveExact finds a minimum-makespan schedule by branch and bound;
// practical for P ≤ 5.
var SolveExact = exact.Solve

// RedistributionSizes returns the message sizes of a block-cyclic
// cyclic(r) → cyclic(s) array redistribution (the paper's motivating
// reference [19]).
var RedistributionSizes = workload.Redistribution

// RefineOptions tunes RefineSchedule.
type RefineOptions = incremental.Options

// DefaultRefineOptions returns a 10% threshold with max matching.
var DefaultRefineOptions = incremental.DefaultOptions

// Data staging (the BADD problem of Sections 2 and 6.4).
type (
	// StagingItem is a data item with its size and source machines.
	StagingItem = staging.Item
	// StagingRequest asks for an item at a destination by a deadline.
	StagingRequest = staging.Request
	// StagingProblem is a data staging instance.
	StagingProblem = staging.Problem
	// StagingResult is a staged delivery schedule.
	StagingResult = staging.Result
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

// Broadcast and friends: framework generality beyond total exchange.
var (
	// Broadcast schedules a heterogeneity-aware one-to-all broadcast.
	Broadcast = collective.Broadcast
	// Scatter schedules the root's personalized sends.
	Scatter = collective.Scatter
	// Gather schedules everyone's send to the root.
	Gather = collective.Gather
	// AllGather schedules an all-to-all broadcast via total exchange.
	AllGather = collective.AllGather
	// Reduce schedules an all-to-one reduction (combining trees).
	Reduce = collective.Reduce
	// AllReduce schedules a reduction followed by a broadcast.
	AllReduce = collective.AllReduce
	// PipelinedBroadcast streams a large message down the broadcast
	// tree in segments.
	PipelinedBroadcast = collective.PipelinedBroadcast
)

// BruckResult reports a combine-and-forward total exchange.
type BruckResult = indirect.Result

// Bruck schedules a log-round combine-and-forward total exchange —
// the indirect alternative the paper's Section 3.4 rejects for
// voluminous data (see EXPERIMENTS.md X12 for when each side wins).
var Bruck = indirect.Bruck

// Application-level communicator (plans collectives from directory
// snapshots and repairs repeated exchanges incrementally).
type (
	// Communicator plans network-aware collective communication.
	Communicator = comm.Communicator
	// CommConfig tunes a Communicator.
	CommConfig = comm.Config
	// CommSource supplies current network performance.
	CommSource = comm.Source
	// CommHealth reports which rung of the fallback ladder a
	// Communicator is planning from.
	CommHealth = comm.Health
	// CommStats counts a Communicator's planning activity, including
	// fresh/stale/degraded serves.
	CommStats = comm.Stats
)

// Fallback-ladder health states.
const (
	// CommHealthOK: planning from fresh directory data.
	CommHealthOK = comm.HealthOK
	// CommHealthStale: directory unreachable, planning from a cached
	// table within the staleness bound.
	CommHealthStale = comm.HealthStale
	// CommHealthDegraded: no usable table, planning with the uniform
	// caterpillar baseline.
	CommHealthDegraded = comm.HealthDegraded
)

// NewCommunicator creates a communicator over a performance source.
var NewCommunicator = comm.New

// StaticCommSource wraps a fixed table as a CommSource.
var StaticCommSource = comm.StaticSource

// Fault injection (chaos testing of the directory, the communicator,
// and the simulator).
type (
	// LinkEvent degrades (or fails, Factor 0) one directed link mid-run.
	LinkEvent = faults.LinkEvent
	// ConnFaultConfig parameterizes connection-level fault injection.
	ConnFaultConfig = faults.ConnConfig
	// ConnFaultInjector wraps net.Conns with seeded drops, stalls, and
	// torn writes.
	ConnFaultInjector = faults.ConnInjector
)

// ErrInjected marks a deliberately injected fault.
var ErrInjected = faults.ErrInjected

// NewConnFaultInjector creates a deterministic connection-fault
// injector; install with DirectoryServer.SetConnWrapper.
var NewConnFaultInjector = faults.NewConnInjector

// WrapCommSource wraps a CommSource with seeded failures and frozen
// stale tables.
var WrapCommSource = faults.WrapSource

// NewFaultyNetwork builds a simulator network from a base table plus
// scripted link events; drive it with SimulateReactive.
var NewFaultyNetwork = faults.NewNetwork

// RandomLinkEvents draws seeded link degradations and failures on
// distinct links inside a time window.
var RandomLinkEvents = faults.RandomLinkEvents

// Data-plane execution (internal/exec): a schedule is not just a
// prediction — the executor moves real bytes over a transport in
// timing-diagram order under the port model, retries transient
// failures, and replans the residual among survivors when a node dies
// mid-exchange.
type (
	// ExecTransport moves bytes between nodes (in-memory pipes or TCP
	// loopback).
	ExecTransport = exec.Transport
	// ExecConfig tunes the data-plane executor.
	ExecConfig = exec.Config
	// Executor runs a planned exchange over a transport.
	Executor = exec.Executor
	// DeliveryReport accounts for every byte of one executed exchange.
	DeliveryReport = exec.DeliveryReport
	// DestReport is a DeliveryReport's per-destination accounting.
	DestReport = exec.DestReport
	// PeerDeadError marks a node declared (or injected) dead.
	PeerDeadError = exec.PeerDeadError
)

// Executor failure sentinels, testable with errors.Is.
var (
	// ErrPeerDead matches any PeerDeadError.
	ErrPeerDead = exec.ErrPeerDead
	// ErrExecTransportClosed marks a transport torn down mid-call.
	ErrExecTransportClosed = exec.ErrTransportClosed
)

// NewExecutor creates a data-plane executor over a transport.
var NewExecutor = exec.New

// NewMemTransport creates an in-memory pipe transport for n nodes.
var NewMemTransport = exec.NewMem

// NewTCPTransport creates a TCP-loopback transport for n nodes.
var NewTCPTransport = exec.NewTCP

// ResidualPattern returns the survivor-to-survivor pairs still
// undelivered after a mid-exchange failure.
var ResidualPattern = sched.ResidualPattern

// ReplanResidual schedules a residual pattern on the
// survivor-restricted matrix.
var ReplanResidual = sched.ReplanResidual

// Seeded latency/stall injection for transport-level chaos tests.
type (
	// LatencyFaultConfig parameterizes seeded delay and stall injection.
	LatencyFaultConfig = faults.LatencyConfig
	// LatencyFaultInjector wraps net.Conns with seeded latency and
	// stalls; install with a transport's SetConnWrapper.
	LatencyFaultInjector = faults.LatencyInjector
)

// NewLatencyFaultInjector creates a deterministic latency injector.
var NewLatencyFaultInjector = faults.NewLatencyInjector

// Broadcast algorithms.
const (
	FastestNodeFirst  = collective.FastestNodeFirst
	LinearBroadcast   = collective.LinearBroadcast
	BinomialBroadcast = collective.BinomialBroadcast
)

// Telemetry (internal/obs): a zero-dependency metrics registry plus
// span tracing with Chrome trace_event export. Pass a registry/tracer
// through CommConfig.Metrics/Tracer or ResilientConfig.Metrics/Tracer to
// instrument planning and directory traffic; everything is a no-op
// when left nil.
type (
	// MetricsRegistry is a race-safe registry of counters, gauges, and
	// histograms with Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// MetricLabel is one name/value metric label.
	MetricLabel = obs.Label
	// Tracer records spans and instants and writes Chrome trace_event
	// JSON loadable in chrome://tracing and Perfetto.
	Tracer = obs.Tracer
	// Span is one in-flight traced operation.
	Span = obs.Span
	// TraceContext is the request-scoped trace/span identity carried
	// through context.Context across serve, comm, and exec.
	TraceContext = obs.TraceContext
	// ReqTrace is one request's recorded span tree.
	ReqTrace = obs.ReqTrace
	// FlightRecorder is the always-on fixed-size ring of recent
	// structured events, dumped to disk on faults or SIGQUIT.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one flight-recorder ring entry.
	FlightEvent = obs.FlightEvent
	// TailSampler retains span trees of interesting requests under a
	// fixed cap.
	TailSampler = obs.TailSampler
)

// NewMetricsRegistry creates an empty metrics registry.
var NewMetricsRegistry = obs.New

// DefaultMetrics returns the process-wide shared registry.
var DefaultMetrics = obs.Default

// DeclareStandardMetrics pre-declares every hetsched_* metric family in
// a registry so scrapers see the full schema before traffic arrives.
var DeclareStandardMetrics = obs.DeclareStandard

// NewTracer creates a tracer; nil selects the wall clock.
var NewTracer = obs.NewTracer

// MetricLabelValue builds one metric label.
var MetricLabelValue = obs.L

// TraceSchedule renders a schedule onto a tracer as one track per
// sender with one slice per message — the paper's timing diagrams as a
// Perfetto-loadable trace.
var TraceSchedule = obs.TraceSchedule

// ServeMetrics exposes /metrics (Prometheus text), /debug/vars, and
// /debug/pprof for a registry on addr in the background; it returns
// the bound address and a shutdown function.
var ServeMetrics = obs.Serve

// MetricsHandler returns the telemetry HTTP handler for embedding in
// an existing server.
var MetricsHandler = obs.Handler

// NewTraceID draws a process-unique request trace ID (never zero).
var NewTraceID = obs.NewTraceID

// WithTrace binds a TraceContext to a context; TraceFrom reads it back
// (zero value when absent).
var (
	WithTrace = obs.WithTrace
	TraceFrom = obs.TraceFrom
)

// FormatTraceID and ParseTraceID convert trace IDs to and from their
// 16-hex-digit wire form.
var (
	FormatTraceID = obs.FormatTraceID
	ParseTraceID  = obs.ParseTraceID
)

// NewFlightRecorder creates a flight recorder with the given ring size
// (<=0 selects 1024); NewTailSampler creates a tail sampler with the
// given retention cap (<=0 selects 256). Wire them through
// CommConfig.Flight and PlanDaemonConfig.Flight/Tail.
var (
	NewFlightRecorder = obs.NewFlightRecorder
	NewTailSampler    = obs.NewTailSampler
)

// SetSimTelemetry wires checkpoint/replan counters and trace instants
// into the simulator's execution loops (process-wide; pass nil, nil to
// disable).
var SetSimTelemetry = sim.SetTelemetry

// Planning as a service (internal/serve): a daemon that answers plan
// requests over the JSON-line protocol with admission control and
// backpressure (bounded queue, deadline propagation, shed with
// retry-after), request coalescing behind a generation-versioned plan
// cache, and graceful degradation riding the communicator's
// fresh→stale→degraded ladder. Overload is always explicit: every
// request the daemon reads gets a served, shed, expired, or draining
// answer — never a silent drop. Command hetpland wraps this; hcload
// storms it.
type (
	// PlanDaemon admits, coalesces, plans, and sheds plan requests.
	PlanDaemon = serve.Daemon
	// PlanDaemonConfig tunes admission control and degradation.
	PlanDaemonConfig = serve.Config
	// PlanServer serves a PlanDaemon over TCP.
	PlanServer = serve.Server
	// PlanServerConfig tunes connection handling and drain behavior.
	PlanServerConfig = serve.ServerConfig
	// PlanClient is a plan-service client connection.
	PlanClient = serve.Client
	// PlanGenFunc reports the directory generation for cache
	// invalidation.
	PlanGenFunc = serve.GenFunc
	// PlanRequest is one plan-service request (wire format).
	PlanRequest = directory.PlanRequest
	// PlanResponse is one plan-service response (wire format).
	PlanResponse = directory.PlanResponse
	// PlanServeStats counts a daemon's serving outcomes.
	PlanServeStats = directory.ServeStats
)

// NewPlanDaemon creates a planning daemon over a communicator.
var NewPlanDaemon = serve.NewDaemon

// NewPlanServer wraps a daemon as a TCP JSON-line service.
var NewPlanServer = serve.NewServer

// DialPlanService connects a PlanClient to a running daemon.
var DialPlanService = serve.Dial

// Slow-consumer fault injection: a peer that reads at a trickle, the
// overload case only write deadlines defend against.
type (
	// SlowClientConfig shapes the trickle (chunk size, pause,
	// direction).
	SlowClientConfig = faults.SlowClientConfig
	// SlowClientInjector wraps net.Conns so they trickle without ever
	// failing.
	SlowClientInjector = faults.SlowClientInjector
)

// NewSlowClientInjector creates a slow-consumer injector; install with
// PlanServerConfig.WrapConn or DirectoryServer.SetConnWrapper.
var NewSlowClientInjector = faults.NewSlowClientInjector

// Closed-loop network calibration: an online estimator that turns the
// executor's measured transfer timings into trusted per-pair
// (latency, bandwidth) estimates, with outlier rejection and
// confidence so planning distrusts cold or contradictory pairs and
// falls back to the static directory table. Install via
// CommConfig.Calibrator; see DESIGN.md §14.
type (
	// Calibrator fits per-pair network estimates from measured
	// transfers.
	Calibrator = calib.Calibrator
	// CalibConfig tunes the fit, the rejection gauntlet, and trust.
	CalibConfig = calib.Config
	// CalibSample is one measured transfer (the executor emits these
	// through ExecConfig.Samples).
	CalibSample = calib.Sample
	// CalibUpdate is one trusted per-pair estimate ready to push to
	// the directory.
	CalibUpdate = calib.Update
	// CalibBatchReport tallies one ObserveBatch call.
	CalibBatchReport = calib.BatchReport
	// CalibPairEstimate is one pair's fitted state and confidence.
	CalibPairEstimate = calib.PairEstimate
	// CalibSummary snapshots the whole calibrator for /statusz.
	CalibSummary = calib.Summary
)

// NewCalibrator creates a calibrator anchored on a static table.
var NewCalibrator = calib.New

// Seeded network-drift fault injection for calibration chaos tests:
// a virtual-time schedule of step/ramp/flap events over the true
// pairwise performance, and a conn wrapper imposing the drifted
// timings on real transfers.
type (
	// NetworkDrifter evolves the true network along a seeded schedule.
	NetworkDrifter = faults.Drifter
	// DriftEvent is one step, ramp, or flap on one pair.
	DriftEvent = faults.DriftEvent
	// PairDelayConfig shapes the per-pair delay injector.
	PairDelayConfig = faults.PairDelayConfig
	// PairDelayInjector wraps conns so transfers take the drifted
	// network's time.
	PairDelayInjector = faults.PairDelayInjector
)

// NewNetworkDrifter creates a drift schedule over a base table.
var NewNetworkDrifter = faults.NewDrifter

// NewPairDelayInjector creates a conn wrapper that imposes per-pair
// latency and bandwidth on real transfers.
var NewPairDelayInjector = faults.NewPairDelayInjector
