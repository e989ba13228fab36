package chaos

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wmsn/internal/attack"
	"wmsn/internal/fault"
	"wmsn/internal/obs"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

var (
	soakTrials    = flag.Int("soak.trials", 6, "number of randomized soak trials")
	soakArtifacts = flag.String("soak.artifacts", "", "directory receiving flight-recorder dumps for failing trials")
)

// TestSoak is the chaos gate: seeded randomized fault plans on lossy media
// with link ARQ armed, every structural invariant checked after each trial,
// and every delivered packet held to the read-only contract by the freeze
// check. CI runs it under -race via `make soak` and `make race`.
func TestSoak(t *testing.T) {
	trials, err := soak(Options{Seed: 20260806, Trials: *soakTrials, Log: t.Logf,
		ArtifactDir: *soakArtifacts}, armFreeze(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != *soakTrials {
		t.Fatalf("completed %d trials, want %d", len(trials), *soakTrials)
	}
	engaged := false
	for _, tr := range trials {
		if tr.Delivery < 0 || tr.Delivery > 1 {
			t.Fatalf("trial seed %d: impossible delivery ratio %v", tr.Seed, tr.Delivery)
		}
		if tr.Result.Metrics.LinkTxQueued > 0 {
			engaged = true
		}
	}
	if !engaged {
		t.Fatal("no trial ever engaged the link ARQ — the soak is not stressing the reliability stack")
	}
}

// TestSoakSharded runs the same randomized fault plans region-sharded
// (Config.Shards > 1): concurrent region workers, staged deaths, outbox
// adoption — under the full invariant battery, with link ARQ armed and
// deaths landing mid-window — and under the freeze check, whose packets
// cross region workers. Sharded trials must also be deterministic
// functions of their seed, or no violation they find is replayable; the
// replay runs without the freeze check, so the check is also shown not to
// perturb a trial.
func TestSoakSharded(t *testing.T) {
	opt := Options{Seed: 20260807, Trials: 4, RunFor: 40 * sim.Second, Shards: 3, Log: t.Logf}
	trials, err := soak(opt, armFreeze(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != opt.Trials {
		t.Fatalf("completed %d trials, want %d", len(trials), opt.Trials)
	}
	for _, tr := range trials {
		if tr.Delivery < 0 || tr.Delivery > 1 {
			t.Fatalf("trial seed %d: impossible delivery ratio %v", tr.Seed, tr.Delivery)
		}
	}
	replay, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trials {
		sa, sb := trials[i].Result.Metrics.Snapshot(), replay[i].Result.Metrics.Snapshot()
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("sharded trial %d diverged between identical soak runs:\n%+v\nvs\n%+v", i, sa, sb)
		}
	}
}

// TestSoakDeterministic replays one trial seed and demands identical
// metrics: a violation found by the soak must be reproducible from its
// seed alone.
func TestSoakDeterministic(t *testing.T) {
	opt := Options{Seed: 99, Trials: 2, RunFor: 30 * sim.Second}
	a, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		sa, sb := a[i].Result.Metrics.Snapshot(), b[i].Result.Metrics.Snapshot()
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("trial %d diverged between identical soak runs:\n%+v\nvs\n%+v", i, sa, sb)
		}
	}
}

// TestInvariantViolationIsCaught proves the checker bites: a run whose
// link ledger is tampered with — simulating a lost-update bug in the ARQ
// machine — must fail CheckInvariants, loudly.
func TestInvariantViolationIsCaught(t *testing.T) {
	opt := Options{Seed: 7, Trials: 1, RunFor: 20 * sim.Second}.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	cfg := compose(rng, opt)
	n, err := scenario.BuildE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.StartTraffic()
	n.World.Run(cfg.RunFor)
	n.StopTraffic()
	n.World.Run(cfg.RunFor + opt.Grace)
	if err := CheckInvariants(n); err != nil {
		t.Fatalf("healthy run violated invariants: %v", err)
	}
	// Simulate a frame admitted to a queue but never accounted as settled.
	n.Metrics.LinkTxQueued++
	err = CheckInvariants(n)
	if err == nil {
		t.Fatal("tampered conservation ledger passed CheckInvariants")
	}
	if !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("violation error %q does not name the ledger", err)
	}
}

// TestDumpTailWritesRecorderEvents exercises the failure-artifact path: the
// dump file must land next to the seed name and replay as valid JSONL.
func TestDumpTailWritesRecorderEvents(t *testing.T) {
	rec := obs.NewRecorder(4)
	for i := 0; i < 9; i++ { // overflow the ring: only the last 4 survive
		rec.Observe(obs.Event{At: sim.Time(i) * sim.Second, Kind: obs.LinkTx, Node: 1, Seq: uint32(i)})
	}
	dir := t.TempDir()
	path, err := DumpTail(filepath.Join(dir, "nested"), 4242, rec)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "chaos-seed-4242.jsonl" {
		t.Fatalf("dump name = %q", filepath.Base(path))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 || events[0].Seq != 5 || events[3].Seq != 8 {
		t.Fatalf("dump holds %d events (first %+v), want the newest 4", len(events), events[0])
	}
}

// TestSoakRecordedMatchesBare proves arming the flight recorder does not
// perturb a trial: same seeds, same metrics, recorder on or off.
func TestSoakRecordedMatchesBare(t *testing.T) {
	opt := Options{Seed: 99, Trials: 1, RunFor: 20 * sim.Second}
	bare, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.ArtifactDir = t.TempDir()
	recorded, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := bare[0].Result.Metrics.Snapshot(), recorded[0].Result.Metrics.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("recorder changed trial outcome:\n%+v\nvs\n%+v", sa, sb)
	}
	// No invariant failed, so no artifact may be written.
	names, _ := os.ReadDir(opt.ArtifactDir)
	if len(names) != 0 {
		t.Fatalf("healthy soak left %d artifact(s)", len(names))
	}
}

// TestSoakAttacks runs the randomized trials with compromise campaigns
// armed: every structural invariant must keep holding when a fraction of
// the sensors turns hostile mid-run, and at least one trial must actually
// land a compromise (otherwise the option is dead weight).
func TestSoakAttacks(t *testing.T) {
	opt := Options{Seed: 20260808, Trials: *soakTrials, Attacks: true, Log: t.Logf,
		ArtifactDir: *soakArtifacts}
	trials, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	var compromised uint64
	for _, tr := range trials {
		if tr.Delivery < 0 || tr.Delivery > 1 {
			t.Fatalf("trial seed %d: impossible delivery ratio %v", tr.Seed, tr.Delivery)
		}
		compromised += tr.Result.Metrics.CompromisedNodes
	}
	if compromised == 0 {
		t.Fatal("no trial compromised any node — the attack campaigns never engaged")
	}
}

// TestSoakAttacksSharded runs attack-randomized trials region-sharded and
// replays them: compromise campaigns must be deterministic functions of the
// trial seed at any shard count, or no violation they find is replayable.
func TestSoakAttacksSharded(t *testing.T) {
	opt := Options{Seed: 20260809, Trials: 4, RunFor: 40 * sim.Second, Shards: 3,
		Attacks: true, Log: t.Logf}
	trials, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	var compromised uint64
	for _, tr := range trials {
		compromised += tr.Result.Metrics.CompromisedNodes
	}
	if compromised == 0 {
		t.Fatal("no sharded trial compromised any node")
	}
	replay, err := Soak(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trials {
		sa, sb := trials[i].Result.Metrics.Snapshot(), replay[i].Result.Metrics.Snapshot()
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("sharded attack trial %d diverged between identical soak runs:\n%+v\nvs\n%+v", i, sa, sb)
		}
	}
}

// TestSoakAttackLedgerBalances pins the accounting claim behind the attack
// soak: a blackhole insider swallows frames AFTER the link-layer ARQ has
// acknowledged them, so attacker drops are end-to-end losses, not ledger
// leaks — CheckLinkConservation must stay balanced while AttackerDropped
// counts real damage.
func TestSoakAttackLedgerBalances(t *testing.T) {
	opt := Options{Seed: 31, Trials: 1, RunFor: 40 * sim.Second}.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	cfg := compose(rng, opt)
	cfg.Protocol = scenario.SecMLR
	cfg.Faults = fault.NewPlan().CompromiseFractionAt(10*sim.Second, 0.25,
		attack.Spec{Kind: attack.KindBlackhole}, 7)
	n, err := scenario.BuildE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.StartTraffic()
	n.World.Run(cfg.RunFor)
	n.StopTraffic()
	n.World.Run(cfg.RunFor + opt.Grace)
	if n.Metrics.CompromisedNodes == 0 {
		t.Fatal("campaign compromised no nodes")
	}
	if n.Metrics.AttackerDropped == 0 {
		t.Fatal("blackhole insiders swallowed nothing — the attack never bit")
	}
	if err := CheckInvariants(n); err != nil {
		t.Fatalf("attacked run violated invariants: %v", err)
	}
}
