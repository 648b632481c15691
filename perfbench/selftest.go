package main

import (
	"fmt"
	"os"
	"strings"
)

// runSelfTest shows the checks bite: each case runs a short workload with
// one deliberate fault and passes only if the run reports it failed.
func runSelfTest(base config) int {
	cases := []struct {
		workload, inject string
		ops              int
		wantReason       string
	}{
		{"serve-dense", injectDigest, serveSessions, "differs from the reference"},
		{"serve-herd", injectSequence, snapshotEvery, "status 409"},
	}
	ok := true
	for _, c := range cases {
		cfg := base
		cfg.workload, cfg.inject, cfg.opsOverride, cfg.trace = c.workload, c.inject, c.ops, false
		res, r, err := execute(cfg)
		switch {
		case err != nil:
			fmt.Printf("self-test %s/%s: run error: %v\n", c.workload, c.inject, err)
			ok = false
		case res.Correct || res.Failed == 0:
			fmt.Printf("self-test %s/%s: FAILED TO DETECT (attempted %d, failed %d)\n", c.workload, c.inject, res.Attempted, res.Failed)
			ok = false
		case !strings.Contains(strings.Join(r.failures, "\n"), c.wantReason):
			fmt.Printf("self-test %s/%s: failed for another reason: %v\n", c.workload, c.inject, r.failures)
			ok = false
		default:
			fmt.Printf("self-test %s/%s: detected (%d of %d ops failed): %s\n", c.workload, c.inject, res.Failed, res.Attempted, r.failures[0])
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: self-test failed")
		return 1
	}
	fmt.Println("self-test passed")
	return 0
}
