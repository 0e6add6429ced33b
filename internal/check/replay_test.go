package check

import (
	"bytes"
	"strings"
	"testing"
)

// TestReplayRoundTrip: serialize -> parse must reproduce the config and
// schedule exactly, and re-running the parsed pair must match the
// original run cycle for cycle.
func TestReplayRoundTrip(t *testing.T) {
	cfg := StressConfig{Protocol: "mesi", CPUs: 3, LineWords: 2, Ops: 500, Seed: 77}
	res, sched, err := RunStress(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteReplay(&buf, cfg, sched); err != nil {
		t.Fatal(err)
	}
	cfg2, sched2, err := ReadReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	if cfg2 != cfg.withDefaults() {
		t.Errorf("config round trip: got %+v want %+v", cfg2, cfg.withDefaults())
	}
	if len(sched2) != len(sched) {
		t.Fatalf("schedule round trip: %d ops, want %d", len(sched2), len(sched))
	}
	for i := range sched {
		if sched[i] != sched2[i] {
			t.Fatalf("op %d: got %+v want %+v", i, sched2[i], sched[i])
		}
	}

	res2, err := RunSchedule(cfg2, sched2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles || res2.Checked != res.Checked || res2.Signature() != res.Signature() {
		t.Errorf("re-run diverged: %+v vs %+v", res2, res)
	}
}

// TestReplayMalformed: every malformed input must produce a descriptive
// error naming the offending line, never a panic or a silent zero run.
func TestReplayMalformed(t *testing.T) {
	good := func() string {
		var buf bytes.Buffer
		cfg := StressConfig{Protocol: "firefly", CPUs: 2, Ops: 0}
		WriteReplay(&buf, cfg, Schedule{{CPU: 0, AddrIdx: 1, Data: 5}, {CPU: 1, AddrIdx: 2, Data: 6}})
		return buf.String()
	}()

	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "not a replay file"},
		{"bad magic", "some other file\n", "not a replay file"},
		{"truncated header", "firefly-check replay v1\nprotocol firefly\n", "no ops count"},
		{"unknown key", "firefly-check replay v1\nbogus 3\n", "unknown header key"},
		{"bad value", "firefly-check replay v1\ncpus many\n", "bad cpus value"},
		{"unknown protocol", strings.Replace(good, "protocol firefly", "protocol vaporware", 1), "unknown protocol"},
		{"implausible cpus", strings.Replace(good, "cpus 2", "cpus 9000", 1), "implausible cpu count"},
		{"missing ops", strings.TrimSuffix(good, "1 2 6 0\n"), "truncated"},
		{"huge ops count", strings.Replace(good, "ops 2", "ops 99999999999999", 1), "truncated"},
		{"cachelines not a power of two", strings.Replace(good, "cachelines 16", "cachelines 3", 1), "power of two"},
		{"linewords not a power of two", strings.Replace(good, "linewords 1", "linewords 3", 1), "power of two"},
		{"poollines beyond an int", strings.Replace(good, "poollines 8", "poollines 18446744073709551615", 1), "line 6: poollines value 18446744073709551615 does not fit in an int"},
		{"cachelines beyond memory", strings.Replace(good, "cachelines 16", "cachelines 4611686018427387904", 1), "line 9: check: 8 pool lines and a 4611686018427387904-line cache"},
		{"poollines beyond memory", strings.Replace(good, "poollines 8", "poollines 1099511627776", 1), "do not fit the rig's 16777216-byte memory"},
		{"cachelines beyond memory by its pool offset", strings.Replace(good, "cachelines 16", "cachelines 1073741824", 1), "do not fit the rig's"},
		{"cache filling memory leaves no room for the pool", strings.Replace(good, "cachelines 16", "cachelines 4194304", 1), "do not fit the rig's"},
		{"linewords beyond memory", strings.Replace(good, "linewords 1", "linewords 4611686018427387904", 1), "do not fit the rig's"},
		{"malformed op fields", strings.Replace(good, "1 2 6 0", "1 2 6", 1), "want 4 fields"},
		{"non-numeric op", strings.Replace(good, "1 2 6 0", "1 x 6 0", 1), "malformed op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadReplay(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("parse accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The valid baseline must still parse, and so must a cache of half
	// the rig's memory.
	for _, in := range []string{good, strings.Replace(good, "cachelines 16", "cachelines 2097152", 1)} {
		if _, _, err := ReadReplay(strings.NewReader(in)); err != nil {
			t.Fatalf("valid replay rejected: %v", err)
		}
	}
}

// TestReplayFileMissing: a nonexistent path reports the OS error.
func TestReplayFileMissing(t *testing.T) {
	if _, err := RunReplayFile("/nonexistent/repro.replay"); err == nil {
		t.Fatal("RunReplayFile accepted a missing file")
	}
}
