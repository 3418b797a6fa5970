// Command spadmitd is the online admission-control daemon: the
// paper's overhead-aware schedulability test served over HTTP against
// live cluster sessions, each backed by an incremental admission
// context (incremental probes, not re-analysis of the whole
// assignment).
//
// Usage:
//
//	spadmitd serve [-addr :7007] [-data-dir dir] [-max-sessions 1024]
//
// The wire contract is the public api package (the v1 versioned
// schema); package client is the typed Go SDK over it. See DESIGN.md
// §3 for the architecture (session actors, sharded store, LRU
// eviction + checkpoint/restore, removal invalidation) and README.md
// for curl and Go-client quickstarts.
package main

import (
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() {
	if err := cli.Admitd(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spadmitd:", err)
		os.Exit(1)
	}
}
