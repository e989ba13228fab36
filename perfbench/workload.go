package main

import (
	"fmt"
	"math/rand"
	"time"

	"wmsn/internal/attack"
	"wmsn/internal/core"
	"wmsn/internal/fault"
	"wmsn/internal/scenario"
	"wmsn/internal/service"
	"wmsn/internal/sim"
)

// The workloads. Each turns the benchmark seed into the inputs the program
// receives; nothing else about a run depends on the seed.
const (
	wlSPRField     = "spr-field"
	wlSecMLRRounds = "secmlr-rounds"
	wlSweepFaults  = "sweep-faults"
)

var workloadNames = []string{wlSPRField, wlSecMLRRounds, wlSweepFaults}

// mix is splitmix64: it spreads a (benchmark seed, index) pair over the
// int63 range, so neighbouring benchmark seeds share no run seeds.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// fieldSetSize is how many distinct fields a closed-loop workload cycles
// through. Per-field cost varies by about 20% with topology, so the set is
// large enough that its mean and median move by a few percent at most
// between seeds; a run gets through it about once and repeats its head.
const fieldSetSize = 120

// sprField is the SPR field of the spr-field workload: RREQ floods over a
// dense static field, no crypto, faults, runner or service.
func sprField(seed int64) []scenario.Config {
	cfgs := make([]scenario.Config, fieldSetSize)
	for i := range cfgs {
		cfgs[i] = scenario.Config{
			Seed: mix(seed, i), Protocol: scenario.SPR,
			NumSensors: 160, Side: 250, SensorRange: 40, NumGateways: 4,
			ReportInterval: 10 * sim.Second, RunFor: 60 * sim.Second,
		}
	}
	return cfgs
}

// secMLRRounds is the SecMLR field of the secmlr-rounds workload: mobile
// gateways re-verify routes every 20 s round, so per-hop HMAC and round
// rotation dominate.
func secMLRRounds(seed int64) []scenario.Config {
	cfgs := make([]scenario.Config, fieldSetSize)
	for i := range cfgs {
		cfgs[i] = scenario.Config{
			Seed: mix(seed, 1000+i), Protocol: scenario.SecMLR,
			NumSensors: 80, Side: 180, SensorRange: 40, NumGateways: 3,
			RoundLen: 20 * sim.Second, ReportInterval: 10 * sim.Second,
			RunFor: 100 * sim.Second,
		}
	}
	return cfgs
}

// sweepSeedsPerCell is how many seeds each sweep-faults cell runs per pass.
const sweepSeedsPerCell = 5

// sweepFaults is one pass of the sweep-faults workload: SPR/MLR/SecMLR under
// 20% loss with link ARQ, and under a gateway kill plus a 10% blackhole
// compromise campaign, plus loss-free SPR on the two-lane sharded engine.
// The cells are interleaved (seed-major), so cheap and expensive runs share
// the workers throughout a pass instead of arriving in blocks.
func sweepFaults(seed int64) []scenario.Config {
	arq := core.DefaultParams()
	arq.LinkRetries = 4
	arq.ForwardQueueLimit = 32
	type cell struct {
		proto  scenario.Protocol
		mutate func(c *scenario.Config, campaignSeed int64)
	}
	lossy := func(c *scenario.Config, _ int64) {
		c.LossRate = 0.2
		params := arq
		c.Params = &params
	}
	attacked := func(c *scenario.Config, campaignSeed int64) {
		c.Faults = fault.NewPlan().
			KillGateway(20*sim.Second, 0).
			CompromiseFractionAt(15*sim.Second, 0.1, attack.Spec{Kind: attack.KindBlackhole}, campaignSeed).
			Settle(10 * sim.Second)
	}
	sharded := func(c *scenario.Config, _ int64) { c.Shards = 2 }
	cells := []cell{
		{scenario.SPR, lossy}, {scenario.SPR, attacked},
		{scenario.MLR, lossy}, {scenario.MLR, attacked},
		{scenario.SecMLR, lossy}, {scenario.SecMLR, attacked},
		{scenario.SPR, sharded},
	}
	var cfgs []scenario.Config
	for s := 0; s < sweepSeedsPerCell; s++ {
		for ci, cl := range cells {
			c := scenario.Config{
				Seed: mix(seed, 2000+ci*10+s), Protocol: cl.proto,
				NumSensors: 80, Side: 180, SensorRange: 40, NumGateways: 3,
				ReportInterval: 10 * sim.Second, RunFor: 60 * sim.Second,
				SensorBattery: 1e6,
			}
			// The campaign seed is drawn per (cell, seed), so the victims
			// change with the benchmark seed too.
			cl.mutate(&c, mix(seed, 3000+ci*10+s))
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// Job mix of the service probe: a pool of distinct wmsnd jobs of 1-4 small
// runs of the CI-smoke shape. The mix is balanced (each run count and each
// protocol equally often), so a seed changes the fields and the order of
// arrivals but not the mean work per job.
const (
	jobPoolSize = 24
	// jobRate is the open-loop arrival rate in jobs per second: about half
	// of what the daemon completes on a 2-vCPU host with default settings.
	jobRate = 7.0
)

// jobPool returns the distinct job requests of the service probe.
func jobPool(seed int64) []service.RunRequest {
	protos := []string{"spr", "mlr", "secmlr"}
	pool := make([]service.RunRequest, jobPoolSize)
	for j := range pool {
		runs := make([]service.RunSpec, 1+j%4)
		for r := range runs {
			runs[r] = service.RunSpec{
				Seed: mix(seed, 5000+j*10+r), Protocol: protos[(j+r)%len(protos)],
				NumSensors: 80, Side: 180, SensorRange: 40, NumGateways: 3,
				ReportIntervalS: 10, RunForS: 40,
			}
		}
		pool[j] = service.RunRequest{Runs: runs}
	}
	return pool
}

// jobConfig mirrors the daemon's wire-to-config conversion for the fields
// jobPool sets, so a job's runs can be replayed in-process.
func jobConfig(sp service.RunSpec) scenario.Config {
	return scenario.Config{
		Seed: sp.Seed, Protocol: scenario.Protocol(sp.Protocol),
		NumSensors: sp.NumSensors, Side: sp.Side, SensorRange: sp.SensorRange,
		NumGateways:    sp.NumGateways,
		ReportInterval: sim.Duration(sp.ReportIntervalS * float64(sim.Second)),
		RunFor:         sim.Duration(sp.RunForS * float64(sim.Second)),
	}
}

// arrivals draws n arrivals of the probe's open-loop schedule at jobRate:
// arrival k is due at a uniformly random point of the k-th 1/jobRate slot,
// and names a job of the pool, replayed in a fresh seed-drawn permutation
// every jobPoolSize arrivals. Jittered slots rather than Poisson gaps keep
// the load steady enough that latency measures the daemon, not the
// burstiness of one draw.
func arrivals(seed int64, n int) (due []time.Duration, job []int) {
	rng := rand.New(rand.NewSource(mix(seed, 6000)))
	var perm []int
	for k := 0; k < n; k++ {
		if len(perm) == 0 {
			perm = rng.Perm(jobPoolSize)
		}
		due = append(due, time.Duration((float64(k)+rng.Float64())/jobRate*float64(time.Second)))
		job = append(job, perm[0])
		perm = perm[1:]
	}
	return due, job
}

// configsFor returns the configs of a workload.
func configsFor(workload string, seed int64) ([]scenario.Config, error) {
	switch workload {
	case wlSPRField:
		return sprField(seed), nil
	case wlSecMLRRounds:
		return secMLRRounds(seed), nil
	case wlSweepFaults:
		return sweepFaults(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}
