package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the command's exit statuses: bad input exits 2 with an
// error line on stderr and nothing on stdout, and -list exits 0.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-experiment", "nope"}, 2},
		{[]string{"-arb", "nope"}, 2},
		{[]string{"-sched", "oldest,nope"}, 2},
		{[]string{"-segments", "3"}, 2},
		{[]string{"-segments", "-1"}, 2},
		{[]string{"-workers", "-1"}, 2},
		{[]string{"-bogus"}, 2},
		{[]string{"-list"}, 0},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			msg := stderr.String()
			if strings.Contains(msg, "panic:") {
				t.Fatalf("stderr carries a panic:\n%s", msg)
			}
			if tc.code == 0 {
				if !strings.Contains(stdout.String(), "table1sim") || msg != "" {
					t.Fatalf("-list: stdout\n%s\nstderr\n%s", stdout.String(), msg)
				}
				return
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			if msg == "" {
				t.Error("stderr carries no error message")
			}
		})
	}
}
