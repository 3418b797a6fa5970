// Command spmeasure reproduces the paper's Section 3 measurements on
// the host machine: Table 1 (queue-operation durations at N=4 and
// N=64, local and remote) and the rls/sch/cnt function-cost analogs.
//
// Usage:
//
//	spmeasure [-samples 2000] [-raw]
//
// The paper's kernel-mode values are printed alongside for
// comparison; README.md's spmeasure section shows how to run it.
package main

import (
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() {
	if err := cli.Measure(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spmeasure:", err)
		os.Exit(1)
	}
}
