package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expectations maps workload -> seed -> cell -> the cell's recorded
// virtual outcome.  Seeds without an entry check only the invariants.
type expectations map[string]map[string]map[string]outcome

//go:embed expectations.json
var expectationsJSON []byte

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectationsJSON, &e); err != nil {
		return nil, fmt.Errorf("parse expectations.json: %w", err)
	}
	return e, nil
}

// pinned returns the recorded outcomes for one workload and seed, or
// nil when the seed is unpinned.
func (e expectations) pinned(wl string, seed int64) map[string]outcome {
	return e[wl][strconv.FormatInt(seed, 10)]
}

// record stores outs as the expectations for wl at seed and writes the
// whole set to path.
func (e expectations) record(path, wl string, seed int64, outs map[string]outcome) error {
	if e[wl] == nil {
		e[wl] = map[string]map[string]outcome{}
	}
	e[wl][strconv.FormatInt(seed, 10)] = outs
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// check compares a cell's outcome with its recorded expectation and
// returns one line per mismatched field.
func (e expectations) check(wl string, seed int64, name string, got outcome) []string {
	pinned := e.pinned(wl, seed)
	if pinned == nil {
		return nil
	}
	want, ok := pinned[name]
	if !ok {
		return []string{"no recorded expectation"}
	}
	return got.diff(want)
}
