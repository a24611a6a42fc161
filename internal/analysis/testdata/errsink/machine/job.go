package machine

// checkJob and checkWireJob are the job refusal checks: unexported, so
// their callers are in this package.
func checkJob([]int) error     { return nil }
func checkWireJob([]int) error { return nil }

func runUnchecked(threads []int) {
	checkJob(threads)         // want `error result of checkJob is discarded`
	_ = checkWireJob(threads) // want `error result of checkWireJob is discarded`
}

func runChecked(threads []int) error {
	if err := checkJob(threads); err != nil {
		return err
	}
	return checkWireJob(threads)
}
