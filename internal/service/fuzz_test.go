package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"wmsn/internal/scenario"
)

// FuzzRunRequest drives the daemon's request decoding and validation with
// arbitrary bodies, decoded exactly as handleSubmit decodes them. Nothing
// may panic, and every request expand accepts must stay within the default
// limits: a bounded number of valid runs, each within the node and horizon
// caps, and a positive deadline no longer than the maximum.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		quickBody,
		longBody,
		`{"run":{"protocol":"secmlr","num_sensors":80,"num_gateways":2,"run_for_s":60},"seeds":2,"progress_s":0.05}`,
		`{"runs":[{"protocol":"mlr","shards":4},{"protocol":"spr","link_retries":3,"loss_rate":0.2}],"workers":2}`,
		`{"run":{"protocol":"spr","faults":[{"kind":"crash","at_s":5,"node":3},{"kind":"degrade_all","at_s":9,"loss":0.3}]},"trace":true,"sample_s":1}`,
		`{"run":{"protocol":"spr"},"deadline_s":1e300}`,
		`{"run":{"protocol":"spr","run_for_s":-1,"num_sensors":-5},"seeds":-2}`,
		`{"run":{},"runs":[{}],"seeds":999999}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	l := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req RunRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		o, err := req.expand(l)
		if err != nil {
			return
		}
		if n := len(o.cfgs); n == 0 || n > l.MaxRunsPerJob {
			t.Fatalf("accepted %d runs, want 1..%d", n, l.MaxRunsPerJob)
		}
		if o.workers < 1 || o.workers > l.MaxWorkersPerJob {
			t.Fatalf("accepted workers %d, want 1..%d", o.workers, l.MaxWorkersPerJob)
		}
		if o.deadline <= 0 || o.deadline > l.MaxDeadline {
			t.Fatalf("accepted deadline %v, want within (0, %v]", o.deadline, l.MaxDeadline)
		}
		if o.progress < 0 || o.sample < 0 || o.series < 0 {
			t.Fatalf("accepted negative interval: progress %v sample %v series %v", o.progress, o.sample, o.series)
		}
		for i, cfg := range o.cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("run %d accepted but invalid: %v", i, err)
			}
			full := scenario.Defaults(cfg)
			if nodes := full.NumSensors + full.NumGateways; nodes > l.MaxNodes {
				t.Fatalf("run %d accepted with %d nodes, limit %d", i, nodes, l.MaxNodes)
			}
			if full.RunFor <= 0 || full.RunFor > l.MaxHorizon {
				t.Fatalf("run %d accepted with horizon %v, want within (0, %v]", i, full.RunFor, l.MaxHorizon)
			}
			if (o.trace || o.series > 0) && full.Shards > 1 {
				t.Fatalf("run %d accepted tracing with %d shards", i, full.Shards)
			}
		}
	})
}
