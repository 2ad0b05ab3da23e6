package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"gpulat/internal/runner"
)

// goldenFile pins the SHA-256 of simulated output. It changes only on a
// deliberate change to the timing model; refresh it with
//
//	GPULAT_GOLDEN=write go test -count=1 -run TestGoldenOutput ./cmd/gpulat
//
// and say in the change log which model change moved it. A host-side
// rewrite (scheduler data structures, engine bookkeeping) must leave it
// untouched: both engines share the issue path, so the tick-vs-event
// gates alone cannot catch a bug there.
const goldenFile = "testdata/golden.sha256"

// goldenSets are the pinned job lists, by name:
//
//   - suite-quick: `bench-suite -quick -json`, every paper section at
//     smoke scale, including the LRR/GTO scheduler ablation.
//   - gk104-64warps: one experiment-scale GK104 histogram under each
//     scheduler. GK104 has 64 warp slots and 16 block slots, and the
//     grid keeps all 64 resident, so warp slot 63 issues, waits at
//     barriers and relaunches.
func goldenSets() map[string][]runner.Job {
	var wide []runner.Job
	for _, sched := range []string{"LRR", "GTO"} {
		o := runner.Options{Label: sched}
		o.Overrides.WarpSched = sched
		wide = append(wide, runner.Job{
			Kind: runner.KindDynamic, Arch: "GK104", Kernel: "histogram",
			Options: o, Seed: runner.DefaultBaseSeed,
		})
	}
	return map[string][]runner.Job{
		"suite-quick":   suiteJobs(true),
		"gk104-64warps": wide,
	}
}

func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the quick paper grid")
	}
	got := map[string]string{}
	for name, jobs := range goldenSets() {
		set, err := runner.New(0).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[name] = hex.EncodeToString(sum[:])
	}

	if os.Getenv("GPULAT_GOLDEN") == "write" {
		var b strings.Builder
		for _, name := range slices.Sorted(maps.Keys(got)) {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenFile)
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with GPULAT_GOLDEN=write)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[f[1]] = f[0]
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: simulated output changed: sha256 %s, pinned %s", name, sum, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d sets, the test produces %d", goldenFile, len(want), len(got))
	}
}
