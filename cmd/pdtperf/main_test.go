package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a small, quick run of one workload.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	cfg, err := newConfig(workload, 7, 400*time.Millisecond, trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg.out = t.TempDir()
	cfg.log = io.Discard
	cfg.rows = 20_000
	cfg.setups = 1
	cfg.segments = 2
	cfg.cycles = 1
	cfg.tailTxns = 4
	cfg.quiet = 50 * time.Millisecond
	return cfg
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloads runs every workload at a tiny size, untraced and traced:
// each passes the oracle and reports exactly the metrics BENCHMARK.json
// declares, end-to-end ones all non-zero.
func TestWorkloads(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				res, err := run(tinyConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for m, v := range res.Metrics {
					got = append(got, m)
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m, v.Value)
					}
				}
				sort.Strings(got)
				want := declared(t, map[bool]string{false: "end_to_end", true: "per_layer"}[trace])
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("metrics\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestOracleRejectsWrongExpectation shows that a model holding one wrong
// value fails each kind of check: the quiesced table check, a FindByKey
// check, and a restart cycle's checks.
func TestOracleRejectsWrongExpectation(t *testing.T) {
	cfg := tinyConfig(t, "htap-scan", false)
	b := newBench(cfg)
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.db.Close()
	if _, err := b.measure(false, 100*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.m.verify(b.db, b.vr); err != nil {
		t.Fatalf("intact model: %v", err)
	}

	b.m.base[5].b++
	if err := b.m.verify(b.db, b.vr); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("verify with a wrong model value: err = %v, want an oracle mismatch", err)
	}
	tx := b.db.Begin()
	_, row, found, err := tx.FindByKey(b.m.row(10, b.m.base[5])[:1])
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.m.checkFound(0, 10, row, found); err == nil {
		t.Fatal("FindByKey check accepted a row that differs from the model")
	}
	if err := b.cycle(newWindow(), nil); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("restart cycle with a wrong model value: err = %v, want an oracle mismatch", err)
	}
}
