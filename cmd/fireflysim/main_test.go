package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// hashDir returns the SHA-256 of every file in dir, by name.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		sums[e.Name()] = hex.EncodeToString(sum[:])
	}
	return sums
}

// TestGolden replays every invocation in testdata/golden/cases.txt and
// checks stdout, the exit status and every file the run wrote against
// the fixtures, byte for byte. The fixtures were captured from the
// command before it was restructured around run; they pin its
// behaviour and are not regenerated from this code.
func TestGolden(t *testing.T) {
	f, err := os.Open("testdata/golden/cases.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tmp := t.TempDir()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		name, args := fields[0], fields[1:]
		for i := range args {
			args[i] = strings.ReplaceAll(args[i], "{tmp}", tmp)
		}
		t.Run(name, func(t *testing.T) {
			// A replay file under {tmp} is written by an earlier case;
			// when -run filtered that case out there is nothing to read.
			for i := 1; i < len(args); i++ {
				if args[i-1] == "-replay" && strings.HasPrefix(args[i], tmp) {
					if _, err := os.Stat(args[i]); err != nil {
						t.Skipf("%s is written by an earlier case that did not run; run all of TestGolden", filepath.Base(args[i]))
					}
				}
			}
			before := hashDir(t, tmp)
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)

			var got strings.Builder
			fmt.Fprintf(&got, "exit %d\n", code)
			after := hashDir(t, tmp)
			for _, file := range sortedKeys(after) {
				if after[file] != before[file] {
					fmt.Fprintf(&got, "sha256 %s %s\n", file, after[file])
				}
			}
			want, err := os.ReadFile("testdata/golden/" + name + ".meta")
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("exit status or written files differ\n--- got ---\n%s--- want ---\n%s--- stderr ---\n%s", got.String(), want, stderr.String())
			}
			wantOut, err := os.ReadFile("testdata/golden/" + name + ".stdout")
			if err != nil {
				t.Fatal(err)
			}
			if gotOut := strings.ReplaceAll(stdout.String(), tmp, "{tmp}"); gotOut != string(wantOut) {
				t.Errorf("stdout differs\n--- got ---\n%s--- want ---\n%s", gotOut, wantOut)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goroutineTrace matches the header of a goroutine dump ("goroutine 1
// [running]:"), not the word in the -workers usage line.
var goroutineTrace = regexp.MustCompile(`goroutine \d+ \[`)

// TestBadInput: every malformed or out-of-range input exits 2 with a
// message and nothing on stdout, never a panic.
func TestBadInput(t *testing.T) {
	tmp := t.TempDir()
	for name, header := range map[string]string{
		"huge-ops.replay":   "cpus 2\ncachelines 16\nlinewords 1\nops 99999999999999\n",
		"cachelines.replay": "cpus 2\ncachelines 3\nlinewords 1\nops 0\n",
		"linewords.replay":  "cpus 2\ncachelines 16\nlinewords 3\nops 0\n",
	} {
		body := "firefly-check replay v1\nprotocol firefly\n" + header
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"-miss", "2"},
		{"-miss", "-1"},
		{"-share", "5"},
		{"-miss", "NaN"},
		{"-share", "NaN"},
		{"-faults", "bus=NaN"},
		{"-cluster", "2", "-faults", "drop=NaN"},
		{"-cpus", "0"},
		{"-cachelines", "3"},
		{"-cachelines", "-4"},
		{"-cluster", "-2"},
		{"-workers", "-1"},
		{"-cluster", "2", "-workers", "-1"},
		{"-faults", "backoff=18446744073709551615,all=1e-3"},
		{"-faults", "retries=100,all=1e-3"},
		{"-cluster", "1"},
		{"-cluster", "2", "-segments", "3"},
		{"-cluster", "2", "-callers", "0"},
		{"-cluster", "2", "-callers", "14"},
		{"-cluster", "2", "-callers", "16"},
		{"-cluster", "2", "-faults", "stall=1e-2,stallcycles=18446744073709551615"},
		{"-linewords", "1048576"},
		{"-traffic", "rate=0"},
		{"-traffic", "rate=100", "-segments", "0"},
		{"-faults", "bogus"},
		{"-trace-format", "xml", "-trace", filepath.Join(tmp, "trace.out")},
		{"-verify", "nope"},
		{"-replay", filepath.Join(tmp, "missing.replay")},
		{"-replay", filepath.Join(tmp, "huge-ops.replay")},
		{"-replay", filepath.Join(tmp, "cachelines.replay")},
		{"-replay", filepath.Join(tmp, "linewords.replay")},
		{"-arb", "nope"},
		{"-workload", "nope"},
		{"-travel", "1"},
		{"-seconds", "-1"},
		{"-seconds", "1e300"},
		{"-seconds", "5e11", "-warmup", "5e11"},
		{"-faults", "all=1e-3,start=5,end=1"},
		{"-faults", "all=1e-3,addrmin=0x200,addrmax=0x100"},
		{"-experiment", "table1"},
	} {
		name := strings.ReplaceAll(strings.Join(args, " "), tmp+string(filepath.Separator), "")
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != 2 {
				t.Errorf("exit %d, want 2\nstderr: %s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			if msg := stderr.String(); msg == "" || strings.Contains(msg, "panic:") || goroutineTrace.MatchString(msg) {
				t.Errorf("stderr should carry an error message and no panic, got:\n%s", msg)
			}
		})
	}
}

// TestTraceWriteFailure: a trace that cannot be written out is an I/O
// failure, reported on stderr with exit status 1.
func TestTraceWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	for _, format := range []string{"jsonl", "chrome"} {
		t.Run(format, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-cpus", "2", "-seconds", "0.0005", "-warmup", "0.0001",
				"-trace", "/dev/full", "-trace-format", format}, &stdout, &stderr)
			if code != 1 {
				t.Errorf("exit %d, want 1\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "fireflysim: closing trace: ") {
				t.Errorf("stderr should report the failed trace write, got:\n%s", stderr.String())
			}
		})
	}
}

// TestTravelMatchesDirectRun: -travel K rebuilds the machine and runs it
// to cycle K, so what it prints after the time-travel line must equal a
// direct run that stops at K, fault summary included. The default warmup
// is 20,000 cycles, so -travel 30000 lands where -seconds 0.001 stops.
func TestTravelMatchesDirectRun(t *testing.T) {
	for _, flags := range [][]string{
		nil,
		{"-faults", "all=1e-4"},
		{"-arb", "fcfs", "-protocol", "mesi"},
		{"-variant", "cvax", "-linewords", "2", "-faults", "tag=1e-3"},
	} {
		name := strings.Join(flags, " ")
		if name == "" {
			name = "plain"
		}
		t.Run(name, func(t *testing.T) {
			stdoutOf := func(args ...string) string {
				var stdout, stderr bytes.Buffer
				if code := run(append(append([]string{"-cpus", "3"}, flags...), args...), &stdout, &stderr); code != 0 {
					t.Fatalf("%v: exit %d\nstderr: %s", args, code, stderr.String())
				}
				return stdout.String()
			}
			travel := stdoutOf("-seconds", "0.002", "-travel", "30000")
			_, after, found := strings.Cut(travel, "\ntime-travel: ")
			if !found {
				t.Fatalf("no time-travel line in:\n%s", travel)
			}
			_, after, _ = strings.Cut(after, "\n")
			if direct := stdoutOf("-seconds", "0.001"); after != direct {
				t.Errorf("travel report differs from a direct run\n--- travel ---\n%s--- direct ---\n%s", after, direct)
			}
		})
	}
}
