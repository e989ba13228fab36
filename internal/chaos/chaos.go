// Package chaos is the seeded randomized soak harness for the reliability
// stack: it composes randomized-but-reproducible fault plans (gateway
// kills, sensor churn, loss degradation) on lossy media with link-layer
// ARQ armed, runs them to completion, and asserts the structural
// invariants that must hold no matter what the schedule did — the packet
// conservation ledger balances, forwarding queues drain once traffic
// stops, no retransmit timer outlives its frame, and the simulation
// terminates. Every trial is fully determined by (Options.Seed, trial
// index), so any violation is replayable from its seed alone.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"wmsn/internal/attack"
	"wmsn/internal/core"
	"wmsn/internal/fault"
	"wmsn/internal/obs"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// Options parameterizes a soak run.
type Options struct {
	// Seed roots the per-trial RNG streams; trial i uses Seed+i.
	Seed int64
	// Trials is how many independent randomized scenarios to run; 0
	// selects 4.
	Trials int
	// RunFor is the traffic horizon per trial; 0 selects 60 s (virtual).
	RunFor sim.Duration
	// Grace is how long the simulation keeps running after traffic stops,
	// so in-flight retransmissions settle; 0 selects 30 s (virtual),
	// comfortably above the worst-case queue-drain span.
	Grace sim.Duration
	// Protocols is the pool trials draw from; empty selects SPR, MLR and
	// SecMLR.
	Protocols []scenario.Protocol
	// Log, when non-nil, receives one line per trial (testing.T.Logf fits).
	Log func(format string, args ...any)
	// ArtifactDir, when non-empty, arms a flight recorder on every trial
	// and dumps its tail to chaos-seed-<seed>.jsonl in that directory when
	// the trial violates an invariant — the failure ships its own event
	// history next to the seed that replays it. Empty disables recording,
	// so plain soaks pay nothing.
	ArtifactDir string
	// RecorderCap bounds the flight recorder's ring buffer; 0 selects
	// obs.DefaultRecorderCap.
	RecorderCap int
	// Shards > 1 runs every trial region-sharded (scenario.Config.Shards):
	// the same fault plans and invariants, executed by concurrent region
	// workers. Incompatible with ArtifactDir — the obs bus is not
	// concurrency-safe, and scenario validation rejects the combination.
	Shards int
	// Attacks adds one randomized compromise campaign per trial: a random
	// attack family hits a random 5–25% sensor fraction at a random onset.
	// The structural invariants must keep holding — attacker-swallowed
	// frames are accounted drops, not ledger leaks. Off by default so
	// existing soak seeds replay unchanged.
	Attacks bool
}

// Trial summarizes one completed soak scenario.
type Trial struct {
	Seed     int64
	Cfg      scenario.Config
	Result   scenario.Result
	Delivery float64
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 4
	}
	if o.RunFor <= 0 {
		o.RunFor = 60 * sim.Second
	}
	if o.Grace <= 0 {
		o.Grace = 30 * sim.Second
	}
	if len(o.Protocols) == 0 {
		o.Protocols = []scenario.Protocol{scenario.SPR, scenario.MLR, scenario.SecMLR}
	}
	return o
}

// compose builds the randomized trial configuration. Every draw comes from
// rng, so the scenario is a pure function of the trial seed.
func compose(rng *rand.Rand, o Options) scenario.Config {
	p := core.DefaultParams()
	p.LinkRetries = 1 + rng.Intn(5)
	p.ForwardQueueLimit = 8 + rng.Intn(56)
	p.AdvertInterval = sim.Second

	numGW := 2 + rng.Intn(2)
	plan := fault.NewPlan()
	if rng.Intn(2) == 0 {
		plan.KillGateway(o.RunFor/4+sim.Duration(rng.Int63n(int64(o.RunFor/2))), rng.Intn(numGW))
	}
	if rng.Intn(2) == 0 {
		plan.WithChurn(fault.Churn{
			Rate: 60 + rng.Float64()*240,
			MTTR: sim.Duration(2+rng.Intn(5)) * sim.Second,
			Stop: o.RunFor - o.RunFor/8,
		})
	}
	if rng.Intn(3) == 0 {
		plan.RampLoss(o.RunFor/4, o.RunFor/2, 0.1+rng.Float64()*0.2, 4)
	}
	if o.Attacks {
		// One randomized compromise campaign per trial. Drawing these only
		// when Attacks is set keeps every pre-existing soak seed replaying
		// byte-identically.
		specs := []attack.Spec{
			{Kind: attack.KindSelectiveForward, DropProb: 0.25 + rng.Float64()*0.75},
			{Kind: attack.KindBlackhole},
			{Kind: attack.KindReplay, Delay: sim.Duration(1+rng.Intn(3)) * sim.Second, MaxCopies: 50 + rng.Intn(500)},
			{Kind: attack.KindSinkhole, FakeGateway: scenario.GatewayID(rng.Intn(numGW)), Place: rng.Intn(numGW)},
			{Kind: attack.KindSpoofedRouting, FakeGateway: scenario.GatewayID(rng.Intn(numGW)), Place: rng.Intn(numGW),
				Interval: sim.Duration(1+rng.Intn(5)) * sim.Second},
		}
		sp := specs[rng.Intn(len(specs))]
		onset := o.RunFor/8 + sim.Duration(rng.Int63n(int64(o.RunFor/2)))
		plan.CompromiseFractionAt(sim.Time(onset), 0.05+rng.Float64()*0.2, sp, rng.Int63())
	}
	if len(plan.Events) == 0 && plan.Churn == nil {
		// Never run fault-free: the harness exists to stress recovery.
		plan.KillGateway(o.RunFor/2, rng.Intn(numGW))
	}
	return scenario.Config{
		Seed:          rng.Int63(),
		Protocol:      o.Protocols[rng.Intn(len(o.Protocols))],
		NumSensors:    30 + rng.Intn(50),
		Side:          120 + rng.Float64()*80,
		SensorRange:   40,
		NumGateways:   numGW,
		RunFor:        o.RunFor,
		LossRate:      rng.Float64() * 0.25,
		SensorBattery: 1e6,
		Params:        &p,
		Faults:        plan,
		Shards:        o.Shards,
	}
}

// CheckInvariants asserts the post-run structural invariants on a drained
// network. It is exported so tests can demonstrate that a violated
// invariant is actually caught, not silently absorbed.
func CheckInvariants(n *scenario.Net) error {
	var errs []error
	m := n.Metrics
	if depth := n.World.LinkQueueDepth(); depth != 0 {
		errs = append(errs, fmt.Errorf("chaos: %d frames stranded in forwarding queues after drain", depth))
	}
	if stuck := n.World.LinkStuckTimers(); stuck != 0 {
		errs = append(errs, fmt.Errorf("chaos: %d retransmit timers pending with empty queues", stuck))
	}
	if err := m.CheckLinkConservation(n.World.LinkQueueDepth()); err != nil {
		errs = append(errs, err)
	}
	if m.Delivered > m.Generated {
		errs = append(errs, fmt.Errorf("chaos: delivered %d > generated %d", m.Delivered, m.Generated))
	}
	return errors.Join(errs...)
}

// DumpTail writes the flight recorder's surviving events to
// chaos-seed-<seed>.jsonl under dir (created if needed) and returns the
// file's path. A recorder holds the newest DefaultRecorderCap-ish events, so
// the dump is the tail of the trial — the window right before the violation.
func DumpTail(dir string, seed int64, rec *obs.Recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d.jsonl", seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = obs.WriteJSONL(f, rec.Events())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// Soak runs the randomized trials and checks every invariant after each.
// It returns the per-trial summaries and the first violation, tagged with
// the trial seed that reproduces it.
func Soak(o Options) ([]Trial, error) { return soak(o, nil) }

// soak is Soak with an optional extra check per trial: arm, when non-nil,
// instruments each trial's config before the build and returns a check
// that runs after the drain; its error fails the trial like a violated
// invariant.
func soak(o Options, arm func(cfg *scenario.Config) func() error) ([]Trial, error) {
	o = o.withDefaults()
	trials := make([]Trial, 0, o.Trials)
	for i := 0; i < o.Trials; i++ {
		seed := o.Seed + int64(i)
		rng := rand.New(rand.NewSource(seed))
		cfg := compose(rng, o)
		var rec *obs.Recorder
		if o.ArtifactDir != "" {
			rec = obs.NewRecorder(o.RecorderCap)
			cfg.Obs = obs.NewBus(rec)
		}
		check := func() error { return nil }
		if arm != nil {
			check = arm(&cfg)
		}
		n, err := scenario.BuildE(cfg)
		if err != nil {
			return trials, fmt.Errorf("chaos: trial seed %d: %w", seed, err)
		}
		n.StartTraffic()
		n.World.Run(cfg.RunFor)
		n.StopTraffic()
		n.World.Run(cfg.RunFor + o.Grace)
		res := n.Summarize()
		if err := errors.Join(CheckInvariants(n), check()); err != nil {
			if rec != nil {
				if path, derr := DumpTail(o.ArtifactDir, seed, rec); derr != nil {
					err = errors.Join(err, fmt.Errorf("chaos: dumping recorder tail: %w", derr))
				} else {
					err = fmt.Errorf("%w (recorder tail: %s, %d of %d events)", err, path, rec.Len(), rec.Total())
				}
			}
			return trials, fmt.Errorf("chaos: trial seed %d (%s, %d sensors, loss %.2f): %w",
				seed, cfg.Protocol, cfg.NumSensors, cfg.LossRate, err)
		}
		tr := Trial{Seed: seed, Cfg: cfg, Result: res, Delivery: res.Metrics.DeliveryRatio()}
		trials = append(trials, tr)
		if o.Log != nil {
			o.Log("trial seed=%d proto=%s sensors=%d loss=%.2f faults=%d delivery=%.3f retries=%d",
				seed, cfg.Protocol, cfg.NumSensors, cfg.LossRate,
				res.Metrics.FaultsInjected, tr.Delivery, res.Metrics.LinkRetries)
		}
	}
	return trials, nil
}
