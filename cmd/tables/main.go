// Command tables regenerates every table and figure of the paper's
// evaluation, plus the repository's ablation experiments.
//
// Exit status 2 means bad input: an unknown experiment or policy name,
// -segments outside 0-2, or a negative -workers.
//
// Usage:
//
//	tables                  # run everything at the quick budget
//	tables -experiment table2 -full
//	tables -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"firefly/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// splitAxis turns a comma-separated flag value into an axis restriction;
// empty means unrestricted.
func splitAxis(v string) []string {
	if v == "" {
		return nil
	}
	return strings.Split(v, ",")
}

// run executes one invocation, writing reports to stdout and any error
// to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var o experiments.Options
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "experiment ID (see -list) or 'all'")
	full := fs.Bool("full", false, "use report-quality run lengths")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	fs.IntVar(&o.Workers, "workers", 0, "sweep worker goroutines (0 = one per CPU; output is identical for any value)")
	arb := fs.String("arb", "", "restrict policysweep's arbitration axis (comma-separated: fixed, rr, fcfs)")
	sched := fs.String("sched", "", "restrict policysweep's dispatch axis (comma-separated: averse, oldest, steal)")
	fs.IntVar(&o.Segments, "segments", 1, "Ethernet segments for the cluster experiment (2 puts client and server on bridged wires)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *full {
		o.Budget = experiments.Full
	}
	o.Arbs, o.Scheds = splitAxis(*arb), splitAxis(*sched)
	if err := o.Validate(); err != nil {
		fmt.Fprintf(stderr, "tables: %v\n", err)
		return 2
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "  %-12s %s\n", r.ID, r.Note)
		}
		return 0
	}

	runners := experiments.All()
	if *experiment != "all" {
		r := experiments.ByID(*experiment)
		if r == nil {
			fmt.Fprintf(stderr, "tables: unknown experiment %q (try -list)\n", *experiment)
			return 2
		}
		runners = []experiments.Runner{*r}
	}
	for _, r := range runners {
		start := time.Now()
		fmt.Fprintln(stdout, r.Run(o))
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}
	return 0
}
