package lce_test

import (
	"fmt"

	"lce"
)

// ExampleAlign runs the §4.3 loop for EC2 on one comparison worker:
// round 1 finds and repairs the noisy synthesis's divergences, round 2
// confirms the emulator aligned, diffing against the oracle replays
// memoized in round 1.
func ExampleAlign() {
	res, err := lce.Align("ec2", lce.DefaultOptions(), lce.AlignConfig{Workers: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("converged=%v rounds=%d\n", res.Converged, len(res.Rounds))
	fmt.Println(res.Stats)
	// Output:
	// converged=true rounds=2
	// 250 comparisons (10 divergent), 7 repairs over 2 rounds, 0 retries on 0 transient faults, 125 oracle replays (125 memo hits)
}
