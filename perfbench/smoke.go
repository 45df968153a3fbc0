package main

import (
	"bytes"
	"fmt"
	"io"
)

// smokeOptions shrink a run to a few seconds: three instances per
// solver suite and two seconds of traffic.
func smokeOptions(seed int64, spanDir string) options {
	return options{seed: seed, seconds: 2, limit: 3, spanDir: spanDir}
}

// smokeAll runs every workload briefly, untraced and then as one
// traced tour, and checks each report's schema and correctness.
func smokeAll(seed int64, spanDir string, log io.Writer) error {
	o := smokeOptions(seed, spanDir)
	for _, w := range workloads {
		rep, err := runUntraced(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := checkWritten(rep, false, log); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	rep, err := runTour(workloads[0], o)
	if err != nil {
		return fmt.Errorf("tour: %w", err)
	}
	if err := checkWritten(rep, true, log); err != nil {
		return fmt.Errorf("tour: %w", err)
	}
	return nil
}

// checkWritten writes a report, echoes it to log, and parses it back.
func checkWritten(rep *report, traced bool, log io.Writer) error {
	var buf bytes.Buffer
	if err := rep.write(&buf, traced); err != nil {
		return err
	}
	fmt.Fprint(log, buf.String())
	j, err := parseReport(buf.String(), traced)
	if err != nil {
		return err
	}
	if !j.Correct {
		return fmt.Errorf("report not correct: %v", rep.problems)
	}
	return nil
}
