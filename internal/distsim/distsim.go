// Package distsim extends the single-GPU simulation to data-parallel
// multi-GPU training — the §3.4 dimension the paper lists as a natural
// fit for Astra's measurement-driven adaptation ("the choice of ideal
// degree of parallelism ... could be taken in an automated manner with
// runtime measurement and adaptation", §6.7).
//
// The model is synchronous data parallelism: each of N workers runs the
// per-device mini-batch (batch/N rows) on its own simulated GPU, and the
// gradients are combined with a ring all-reduce over the interconnect.
// The exchange is simulated at the event level by the custom-wirer
// (wire.CommConfig): gradients pack into buckets in dispatch order, each
// bucket's 2·(n−1) ring steps are communication kernels on a per-worker
// comm stream gated by the readiness event of the bucket's last gradient,
// and the cluster step is the slowest worker. Bucket size and comm-stream
// placement are adaptive variables the explorer tunes online per
// mini-batch, like any other schedule choice; the closed-form
// RingAllReduceUs formula survives only as a cross-check baseline for the
// serialized single-bucket regime.
package distsim

import (
	"fmt"
	"sort"
	"strconv"

	"astra/internal/adapt"
	"astra/internal/enumerate"
	"astra/internal/gpusim"
	"astra/internal/models"
	"astra/internal/spec"
	"astra/internal/wire"
)

// Interconnect models the gradient-exchange fabric. The built-in table
// lives in internal/spec, beside the Spec that names fabrics; a Cluster may
// also run over a custom one.
type Interconnect = spec.Interconnect

// PCIe, NVLink, Fabrics and FabricByName expose the built-in fabrics, the
// sweep set of the multi-GPU experiments.
func PCIe() Interconnect                            { return spec.PCIe() }
func NVLink() Interconnect                          { return spec.NVLink() }
func Fabrics() []Interconnect                       { return spec.Fabrics() }
func FabricByName(name string) (Interconnect, bool) { return spec.FabricByName(name) }

// Schedule is one fixed communication schedule: a bucket-cap label from
// enumerate.CommBucketLabels ("256", "1024", ..., "all") and a placement
// from enumerate.CommPlacementLabels ("comm" or "main").
type Schedule struct {
	Bucket    string
	Placement string
}

// BulkSync is the bulk-synchronous baseline: every gradient in one bucket,
// exchanged on the main stream strictly after compute.
func BulkSync() Schedule { return Schedule{Bucket: "all", Placement: "main"} }

// Schedules enumerates every fixed communication schedule for a gradient
// payload — exactly the space the online explorer searches, so exhaustive
// sweeps and explored runs are comparable.
func Schedules(gradBytes int64) []Schedule {
	var out []Schedule
	for _, b := range enumerate.CommBucketLabels(gradBytes) {
		for _, p := range enumerate.CommPlacementLabels {
			out = append(out, Schedule{Bucket: b, Placement: p})
		}
	}
	return out
}

// bucketKB converts a bucket label to the CommConfig cap (0 = single
// bucket).
func bucketKB(label string) (int, error) {
	if label == "" || label == "all" {
		return 0, nil
	}
	kb, err := strconv.Atoi(label)
	if err != nil || kb <= 0 {
		return 0, fmt.Errorf("distsim: bad bucket label %q", label)
	}
	return kb, nil
}

// Result reports one data-parallel configuration.
type Result struct {
	Workers int
	// PerDeviceUs is the compute-only time of one worker's wired mini-batch
	// share (same frozen schedule, communication disabled).
	PerDeviceUs float64
	// AllReduceUs is the analytic ring formula for the full payload — the
	// cross-check baseline, not part of the measured step.
	AllReduceUs float64
	// StepUs is the measured event-level cluster step: the slowest worker's
	// batch, gradient exchange included (overlapped or not, as scheduled).
	StepUs float64
	// CommUs is the measured link-busy time of the exchange; CommSpanUs the
	// interval from the first comm kernel's start to the last one's end.
	CommUs     float64
	CommSpanUs float64
	// ThroughputRows is global rows per millisecond.
	ThroughputRows float64
	// Trials counts exploration mini-batches spent (0 for fixed schedules).
	Trials int
	// Bucket and Placement are the communication schedule the step ran
	// with — the explorer's frozen choice, or the fixed one.
	Bucket    string
	Placement string
	// Bindings lists every frozen adaptive variable as "id=label", sorted —
	// the full wired configuration, for asserting two explorations froze
	// identically (e.g. that cost-model pruning never changed the outcome).
	Bindings []string
	// Prior reports cost-model prior quality when the cluster ran with one
	// attached (zero otherwise), and PrunedChoices lists every "var=label"
	// the prior pruned — the audit trail proving no reference winner was
	// ever excluded from measurement.
	Prior         adapt.PriorStats
	PrunedChoices []string
}

// Cluster runs Astra-wired data-parallel steps of a model across worker
// counts.
type Cluster struct {
	Interconnect Interconnect
	// Preset is the Astra adaptation level each worker wires with
	// (default FK); every worker runs the stock simulated P100.
	Preset enumerate.Preset
	// Prior optionally attaches a cost-model prior (internal/costmodel) to
	// every session the cluster runs: exploration is re-ranked and pruned
	// by predicted cost, and measurements train the model in return.
	Prior adapt.Prior
}

// build compiles the per-device replica for one worker count.
func (c *Cluster) build(name string, globalBatch, n int) (*models.Model, error) {
	if n <= 0 {
		return nil, fmt.Errorf("distsim: worker count %d", n)
	}
	if globalBatch%n != 0 {
		return nil, fmt.Errorf("distsim: batch %d not divisible by %d workers", globalBatch, n)
	}
	build, ok := models.Get(name)
	if !ok {
		return nil, fmt.Errorf("distsim: unknown model %q", name)
	}
	return build(models.DefaultConfig(name, globalBatch/n)), nil
}

// spec names the per-device run of one worker count: the replica at
// evaluation scale under the cluster's preset.
func (c *Cluster) spec(m *models.Model, n int) spec.Spec {
	sp := spec.New(m.Name, spec.ScaleDefault, m.Cfg.Batch, string(c.Preset))
	if c.Preset == "" {
		sp.Preset = spec.PresetFK
	}
	if n >= 2 {
		sp.Workers, sp.Fabric = n, c.Interconnect.Name
	}
	return sp
}

// session assembles a multi-worker wired session. adaptComm turns the
// bucket/placement choices into explored variables; otherwise sched fixes
// them.
func (c *Cluster) session(m *models.Model, n int, adaptComm bool, sched Schedule) (*wire.Session, error) {
	cfg := wire.Config(c.spec(m, n))
	cfg.Comm.BytesPerUs, cfg.Comm.LatencyUs = c.Interconnect.BytesPerUs, c.Interconnect.LatencyUs // custom fabrics too
	cfg.Prior = c.Prior
	if !adaptComm {
		kb, err := bucketKB(sched.Bucket)
		if err != nil {
			return nil, err
		}
		cfg.Options.CommAdapt = false
		cfg.Comm.DefaultBucketKB = kb
		cfg.Comm.DefaultPlacement = sched.Placement
	}
	return wire.NewSession(m, cfg), nil
}

// run explores (when the plan has adaptive variables), times one wired
// cluster step, and measures the compute-only baseline of the same frozen
// schedule with communication disabled.
func (c *Cluster) run(m *models.Model, globalBatch, n int, adaptComm bool, sched Schedule) (Result, error) {
	s, err := c.session(m, n, adaptComm, sched)
	if err != nil {
		return Result{}, err
	}
	s.Explore()
	if err := s.Err(); err != nil {
		return Result{}, fmt.Errorf("distsim: exploration: %w", err)
	}
	br := s.Step()
	res := Result{
		Workers:        n,
		AllReduceUs:    c.Interconnect.RingAllReduceUs(s.Plan.GradBytes(), n),
		StepUs:         br.TotalUs,
		CommUs:         br.CommUs,
		CommSpanUs:     br.CommSpanUs,
		ThroughputRows: float64(globalBatch) / (br.TotalUs / 1000),
		Trials:         s.Trials,
		Bucket:         sched.Bucket,
		Placement:      sched.Placement,
	}
	if v := s.Plan.CommBucketVar; v != nil {
		res.Bucket = v.CurrentLabel()
	}
	if v := s.Plan.CommPlaceVar; v != nil {
		res.Placement = v.CurrentLabel()
	}
	if s.Exp != nil {
		res.Prior = s.Exp.PriorStats()
		res.PrunedChoices = s.Exp.PrunedChoices()
		for _, v := range s.Exp.Vars() {
			res.Bindings = append(res.Bindings, v.ID+"="+v.CurrentLabel())
		}
		sort.Strings(res.Bindings)
	}
	if n == 1 {
		res.Bucket, res.Placement = "", ""
		res.PerDeviceUs = br.TotalUs
		return res, nil
	}
	// Compute-only reference: same plan, same frozen bindings, comm off.
	// One wired batch on a fresh device — no re-exploration needed.
	cfg := wire.Config(c.spec(m, 1))
	cfg.Runner.Profile = true
	solo := wire.NewRunner(s.Plan, gpusim.NewDevice(cfg.Device), cfg.Runner)
	res.PerDeviceUs = solo.RunBatch(nil, nil).TotalUs
	return res, nil
}

// Step explores and times one data-parallel configuration: the global
// batch is split across n workers, each worker custom-wires its own
// (batch/n)-sized replica, and the communication schedule (bucket cap,
// stream placement) is explored online alongside the compute schedule.
func (c *Cluster) Step(name string, globalBatch, n int) (Result, error) {
	m, err := c.build(name, globalBatch, n)
	if err != nil {
		return Result{}, err
	}
	return c.run(m, globalBatch, n, true, Schedule{})
}

// StepFixed times one data-parallel configuration under a fixed
// communication schedule (no comm exploration; the compute schedule still
// explores per the preset).
func (c *Cluster) StepFixed(name string, globalBatch, n int, sched Schedule) (Result, error) {
	m, err := c.build(name, globalBatch, n)
	if err != nil {
		return Result{}, err
	}
	return c.run(m, globalBatch, n, false, sched)
}

// StepBulkSync times the bulk-synchronous baseline: one bucket, exchanged
// on the main stream strictly after compute — what the analytic formula
// models, and what overlap is measured against.
func (c *Cluster) StepBulkSync(name string, globalBatch, n int) (Result, error) {
	return c.StepFixed(name, globalBatch, n, BulkSync())
}

// Exhaustive measures every fixed communication schedule for the
// configuration and returns the per-schedule results plus the index of the
// fastest — the offline optimum the online explorer is judged against.
func (c *Cluster) Exhaustive(name string, globalBatch, n int) ([]Result, int, error) {
	m, err := c.build(name, globalBatch, n)
	if err != nil {
		return nil, -1, err
	}
	plan := enumerate.Enumerate(m.G, wire.Config(c.spec(m, 1)).Options)
	var out []Result
	best := -1
	for _, sched := range Schedules(plan.GradBytes()) {
		mm, err := c.build(name, globalBatch, n)
		if err != nil {
			return nil, -1, err
		}
		r, err := c.run(mm, globalBatch, n, false, sched)
		if err != nil {
			return nil, -1, err
		}
		out = append(out, r)
		if best < 0 || r.StepUs < out[best].StepUs {
			best = len(out) - 1
		}
	}
	return out, best, nil
}

// BestWorkers measures every candidate worker count (Astra-style: run and
// measure rather than model) and returns the per-count results plus the
// index of the configuration with the highest throughput.
func (c *Cluster) BestWorkers(name string, globalBatch int, candidates []int) ([]Result, int, error) {
	var out []Result
	best := -1
	for _, n := range candidates {
		r, err := c.Step(name, globalBatch, n)
		if err != nil {
			return nil, -1, err
		}
		out = append(out, r)
		if best < 0 || r.ThroughputRows > out[best].ThroughputRows {
			best = len(out) - 1
		}
	}
	return out, best, nil
}
