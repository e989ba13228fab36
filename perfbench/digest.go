package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"wmsn/internal/metrics"
	"wmsn/internal/scenario"
)

// digest fingerprints the statistics the experiment goldens pin: traffic
// counts, control packets, mean hops, radio tx/rx/lost, mean energy, first
// death, and the reliability and attack counters. Latency percentiles are
// left out on purpose: they come from histograms whose bucketing may change
// without changing the model.
func digest(r scenario.Result) string {
	m := r.Metrics
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d del=%d dup=%d ctl=%d hops=%s ", m.Generated, m.Delivered, m.Duplicates,
		m.ControlPackets(), strconv.FormatFloat(m.MeanHops(), 'g', -1, 64))
	fmt.Fprintf(&b, "tx=%d rx=%d lost=%d ", r.Radio.Transmissions, r.Radio.Deliveries, r.Radio.Lost)
	fmt.Fprintf(&b, "energy=%s death=%d alive=%d ", strconv.FormatFloat(r.Energy.Mean, 'g', -1, 64), r.FirstDeath, r.SensorsAlive)
	fmt.Fprintf(&b, "failovers=%d abandoned=%d link=%d/%d/%d/%d qdrop=%d ", m.Failovers, m.AbandonedData,
		m.LinkTxQueued, m.LinkAcked, m.LinkRetries, m.LinkFailures, m.QueueDrops)
	if rel := r.Reliability; rel != nil {
		fmt.Fprintf(&b, "faults=%d reroutes=%d compromised=%d atkdrop=%d atkinj=%d",
			rel.FaultsInjected, rel.Reroutes, rel.Compromised, rel.AttackerDropped, rel.AttackerInjected)
	}
	return hashString(b.String())
}

// streamDigest fingerprints the subset of the same statistics that a wmsnd
// result line carries (its metrics snapshot, first death and survivors), so
// a daemon result can be checked against the same run made in-process.
func streamDigest(s metrics.Snapshot, firstDeathS float64, alive int) string {
	c := s.Counters
	return hashString(fmt.Sprintf("gen=%d del=%d dup=%d ctl=%d hops=%s tx=%d rx=%d lost=%d death=%s alive=%d faults=%d reroutes=%d compromised=%d atkdrop=%d atkinj=%d",
		s.Generated, s.Delivered, s.Duplicates, s.ControlPackets, strconv.FormatFloat(s.MeanHops, 'g', -1, 64),
		c["radio_transmissions"], c["radio_deliveries"], c["radio_lost"],
		strconv.FormatFloat(firstDeathS, 'g', -1, 64), alive,
		c["faults_injected"], c["reroutes"], c["compromised_nodes"], c["attacker_dropped"], c["attacker_injected"]))
}

// resultStreamDigest is streamDigest of an in-process result, computed the
// way the daemon renders that result on its stream.
func resultStreamDigest(r scenario.Result) string {
	var death float64
	if r.FirstDeath >= 0 {
		death = r.FirstDeath.Seconds()
	}
	return streamDigest(r.Metrics.Snapshot(), death, r.SensorsAlive)
}

func hashString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return strconv.FormatUint(h.Sum64(), 16)
}

// defaultSeed is the seed whose digests are stored with the benchmark.
const defaultSeed = 1

//go:embed testdata/expected.json
var expectedJSON []byte

// expectedDigests maps workload -> per-config digests for defaultSeed, in
// configsFor order.
func expectedDigests() (map[string][]string, error) {
	var m map[string][]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return m, nil
}
