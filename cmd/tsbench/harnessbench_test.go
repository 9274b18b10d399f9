package main

import (
	"strings"
	"testing"
)

// TestCheckTrajectoryIsHostKeyed pins the -check gate's reference: the
// rolling best comes only from rows recorded on the fresh row's host,
// with the 2x margin.
func TestCheckTrajectoryIsHostKeyed(t *testing.T) {
	const fast, slow = "linux/amd64 ncpu=8", "linux/amd64 ncpu=1"
	row := func(host string, secs float64) benchRow {
		return benchRow{Host: host, Sections: map[string]float64{"scenario-grid": secs}}
	}
	prior := []benchRow{row(slow, 10), row(fast, 1), row(slow, 12), row(fast, 1.2)}

	for _, c := range []struct {
		name  string
		fresh benchRow
		fail  bool
	}{
		// 15s is 15x the fast host's best but 1.5x the slow host's own.
		{"slow host within 2x of its own best", row(slow, 15), false},
		{"slow host past 2x of its own best", row(slow, 21), true},
		{"fast host within 2x of its own best", row(fast, 1.9), false},
		{"fast host past 2x of its own best", row(fast, 2.5), true},
		{"new host records without a budget", row("darwin/arm64 ncpu=10", 100), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkTrajectory(prior, c.fresh)
			if c.fail != (err != nil) {
				t.Fatalf("checkTrajectory = %v, want failure %v", err, c.fail)
			}
			if err != nil && !strings.Contains(err.Error(), "scenario-grid") {
				t.Errorf("error does not name the section: %v", err)
			}
		})
	}
}

// TestCheckTrajectoryWindow pins the rolling window: only the last 20
// same-host rows count, however many other-host rows are interleaved.
func TestCheckTrajectoryWindow(t *testing.T) {
	const host, other = "linux/amd64 ncpu=2", "linux/amd64 ncpu=1"
	prior := []benchRow{{Host: host, Sections: map[string]float64{"s": 1}}}
	for i := 0; i < 20; i++ {
		prior = append(prior,
			benchRow{Host: other, Sections: map[string]float64{"s": 0.1}},
			benchRow{Host: host, Sections: map[string]float64{"s": 5}})
	}
	// The 1s row has left the window; the best is now 5s, so 9s passes.
	if err := checkTrajectory(prior, benchRow{Host: host, Sections: map[string]float64{"s": 9}}); err != nil {
		t.Fatalf("9s against a 5s window best: %v", err)
	}
	if err := checkTrajectory(prior, benchRow{Host: host, Sections: map[string]float64{"s": 11}}); err == nil {
		t.Fatal("11s against a 5s window best passed")
	}
}
