package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestQuickRunMatchesCommittedReports runs every suite through the runner
// in quick mode, so each suite's read-back and gates run too, and holds
// each report to the schema of the committed BENCH file at the repo root:
// the same workload names and no row field the committed file lacks.
// Quick rows may omit zero-valued omitempty fields the committed rows
// carry.
func TestQuickRunMatchesCommittedReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark suite (~20 s)")
	}
	if raceEnabled {
		t.Skip("every suite under the race detector takes minutes")
	}
	dir := t.TempDir()
	if err := runSuites(opts{quick: true, reps: 1, workers: 8}, "all", dir, ""); err != nil {
		t.Fatal(err)
	}
	for _, s := range suites {
		t.Run(s.name(), func(t *testing.T) {
			committed := readRows(t, filepath.Join("..", "..", s.file))
			quick := readRows(t, filepath.Join(dir, s.file))
			if got, want := sortedKeys(quick), sortedKeys(committed); !slices.Equal(got, want) {
				t.Fatalf("workloads %v, committed %v", got, want)
			}
			for name, row := range quick {
				for field := range row {
					if _, ok := committed[name][field]; !ok {
						t.Errorf("workload %q: field %q is not in the committed %s", name, field, s.file)
					}
				}
			}
		})
	}
}

func TestUnknownSuite(t *testing.T) {
	if err := runSuites(opts{reps: 1}, "nope", t.TempDir(), ""); err == nil {
		t.Fatal("unknown -only value accepted")
	}
}

// readRows returns a report's workload rows as raw JSON objects.
func readRows(t *testing.T, path string) map[string]map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report[map[string]json.RawMessage]
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rep.Workloads
}
