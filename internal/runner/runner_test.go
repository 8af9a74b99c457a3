package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"routesync/internal/des"
	"routesync/internal/netsim"
)

// The metrics observer must satisfy the partition engine's sync hooks so
// netsim.SetObserver wires it up automatically.
var (
	_ netsim.SyncObserver         = (*Metrics)(nil)
	_ netsim.InlineWindowObserver = (*Metrics)(nil)
)

func TestMetricsSyncWindow(t *testing.T) {
	m := &Metrics{}
	m.InlineWindow()
	m.SyncWindow(1.0, 0, 0, 0) // a coordinator-run conservative window
	m.SyncWindow(2.0, 0.25, 2, 0.125)
	m.SyncWindow(3.0, 0.1, 1, 0.5)
	s := m.Snapshot()
	if s == nil || s.SyncWindows != 3 || s.SyncWindowsInline != 1 || s.SyncRollbacks != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.RollbackDepthMax != 0.5 {
		t.Fatalf("RollbackDepthMax = %v, want 0.5", s.RollbackDepthMax)
	}
	if s.GVTLagMax != 0.25 {
		t.Fatalf("GVTLagMax = %v, want 0.25", s.GVTLagMax)
	}
}

// countingRegistry builds a registry of n file-writing experiments and
// returns per-experiment run counters.
func countingRegistry(n int) (*Registry, []*atomic.Int64) {
	reg := NewRegistry()
	counts := make([]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		i := i
		counts[i] = &atomic.Int64{}
		id := fmt.Sprintf("exp%02d", i)
		reg.Register(Experiment{
			ID:    id,
			Title: "experiment " + id,
			Tags:  []string{"test"},
			Run: func(spec *Spec) (*Artifacts, error) {
				counts[i].Add(1)
				art := &Artifacts{
					Notes:  []string{"note for " + spec.ID},
					Series: 1, Points: 10,
				}
				if spec.Write {
					name := spec.ID + ".csv"
					content := fmt.Sprintf("id=%s seed=%d quick=%v\n", spec.ID, spec.Seed, spec.Quick)
					if err := os.WriteFile(filepath.Join(spec.OutDir, name), []byte(content), 0o644); err != nil {
						return nil, err
					}
					art.Files = []string{name}
				}
				return art, nil
			},
		})
	}
	return reg, counts
}

func runCounts(counts []*atomic.Int64) []int64 {
	out := make([]int64, len(counts))
	for i, c := range counts {
		out[i] = c.Load()
	}
	return out
}

func TestRunIncrementalSkip(t *testing.T) {
	reg, counts := countingRegistry(3)
	dir := t.TempDir()
	opts := Options{Registry: reg, Tag: "test", OutDir: dir, Write: true, Seed: 1}

	// First run executes everything and records the manifest.
	sum, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != 0 || sum.Failed != 0 {
		t.Fatalf("first run: cached=%d failed=%d", sum.Cached, sum.Failed)
	}
	if got := runCounts(counts); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("first run counts = %v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}

	// Second identical run skips everything.
	sum, err = Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != 3 {
		t.Fatalf("second run cached = %d, want 3", sum.Cached)
	}
	if got := runCounts(counts); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("second run re-executed: counts = %v", got)
	}
	// Cached artifacts still carry notes/counts for the index.
	if a := sum.Artifacts[0]; a == nil || len(a.Notes) != 1 || a.Points != 10 {
		t.Fatalf("cached artifacts = %+v", a)
	}

	// Force re-runs despite an up-to-date manifest.
	forced := opts
	forced.Force = true
	if _, err := Run(forced); err != nil {
		t.Fatal(err)
	}
	if got := runCounts(counts); got[0] != 2 {
		t.Fatalf("forced run counts = %v", got)
	}

	// A seed change invalidates the params hash for every experiment.
	reseeded := opts
	reseeded.Seed = 99
	sum, err = Run(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != 0 {
		t.Fatalf("seed change still cached %d", sum.Cached)
	}

	// Deleting one output re-runs exactly that experiment.
	os.Remove(filepath.Join(dir, "exp01.csv"))
	before := runCounts(counts)
	sum, err = Run(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	after := runCounts(counts)
	if sum.Cached != 2 || after[1] != before[1]+1 || after[0] != before[0] || after[2] != before[2] {
		t.Fatalf("deleted-file run: cached=%d before=%v after=%v", sum.Cached, before, after)
	}

	// Corrupting an output likewise forces a re-run of just that one.
	os.WriteFile(filepath.Join(dir, "exp02.csv"), []byte("corrupted\n"), 0o644)
	before = after
	sum, err = Run(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	after = runCounts(counts)
	if sum.Cached != 2 || after[2] != before[2]+1 {
		t.Fatalf("corrupted-file run: cached=%d before=%v after=%v", sum.Cached, before, after)
	}
}

func TestRunPartialProtectsIndexButMergesManifest(t *testing.T) {
	reg, _ := countingRegistry(3)
	dir := t.TempDir()
	opts := Options{Registry: reg, Tag: "test", OutDir: dir, Write: true}

	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	index0, err := os.ReadFile(filepath.Join(dir, "INDEX.md"))
	if err != nil {
		t.Fatal(err)
	}
	timings0, err := os.ReadFile(filepath.Join(dir, "TIMINGS.json"))
	if err != nil {
		t.Fatal(err)
	}

	// A forced -only subset must not rewrite INDEX.md or TIMINGS.json...
	partial := opts
	partial.Only = "exp01"
	partial.Force = true
	sum, err := Run(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Partial {
		t.Fatal("subset run not marked partial")
	}
	index1, _ := os.ReadFile(filepath.Join(dir, "INDEX.md"))
	timings1, _ := os.ReadFile(filepath.Join(dir, "TIMINGS.json"))
	if !bytes.Equal(index0, index1) {
		t.Fatal("partial run rewrote INDEX.md")
	}
	if !bytes.Equal(timings0, timings1) {
		t.Fatal("partial run rewrote TIMINGS.json")
	}

	// ...but its manifest entry is refreshed (wall time changes aside, the
	// entry must still exist and cover all three experiments).
	m := LoadManifest(dir)
	if len(m.Experiments) != 3 {
		t.Fatalf("manifest lost entries after partial run: %d", len(m.Experiments))
	}
}

func TestRunStdoutFormat(t *testing.T) {
	reg, _ := countingRegistry(2)
	dir := t.TempDir()
	var out bytes.Buffer
	opts := Options{Registry: reg, Tag: "test", OutDir: dir, Write: true, Stdout: &out}

	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	first := out.String()
	if !strings.Contains(first, "== exp00 (experiment exp00, ") ||
		!strings.Contains(first, "    note for exp00\n") {
		t.Fatalf("run stdout = %q", first)
	}

	out.Reset()
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	second := out.String()
	if !strings.Contains(second, "== exp00 (experiment exp00, cached)\n") ||
		!strings.Contains(second, "== exp01 (experiment exp01, cached)\n") {
		t.Fatalf("cached stdout = %q", second)
	}
}

func TestRunFailureSkipsBookkeeping(t *testing.T) {
	reg := NewRegistry()
	reg.Register(Experiment{
		ID: "ok", Tags: []string{"test"},
		Run: func(spec *Spec) (*Artifacts, error) {
			name := "ok.csv"
			os.WriteFile(filepath.Join(spec.OutDir, name), []byte("x\n"), 0o644)
			return &Artifacts{Files: []string{name}}, nil
		},
	})
	reg.Register(Experiment{
		ID: "boom", Tags: []string{"test"},
		Run: func(*Spec) (*Artifacts, error) {
			return nil, fmt.Errorf("synthetic failure")
		},
	})
	dir := t.TempDir()
	var errout bytes.Buffer
	sum, err := Run(Options{Registry: reg, Tag: "test", OutDir: dir, Write: true, Errout: &errout})
	if err == nil || !strings.Contains(err.Error(), "1 of 2 experiments failed") {
		t.Fatalf("err = %v", err)
	}
	if sum.Failed != 1 {
		t.Fatalf("Failed = %d", sum.Failed)
	}
	if !strings.Contains(errout.String(), "boom: synthetic failure") {
		t.Fatalf("errout = %q", errout.String())
	}
	// A failed run must not leave behind a manifest that would let the
	// next invocation skip the successful sibling of a broken batch.
	if _, statErr := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(statErr) {
		t.Fatal("failed run wrote a manifest")
	}
	if _, statErr := os.Stat(filepath.Join(dir, "INDEX.md")); !os.IsNotExist(statErr) {
		t.Fatal("failed run wrote INDEX.md")
	}
}

func TestRunUnknownIDs(t *testing.T) {
	reg, _ := countingRegistry(2)
	_, err := Run(Options{Registry: reg, IDs: []string{"exp00", "nope"}})
	if err == nil || !strings.Contains(err.Error(), "unknown figure id(s): nope") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunSharedCachePerInvocation(t *testing.T) {
	var computes atomic.Int64
	reg := NewRegistry()
	for _, id := range []string{"a", "b"} {
		reg.Register(Experiment{
			ID: id, Tags: []string{"test"},
			Run: func(spec *Spec) (*Artifacts, error) {
				v := spec.Shared("expensive", func() any {
					computes.Add(1)
					return 42
				})
				if v.(int) != 42 {
					return nil, fmt.Errorf("shared value = %v", v)
				}
				return &Artifacts{}, nil
			},
		})
	}
	opts := Options{Registry: reg, Tag: "test"}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatalf("first invocation computed %d times, want 1", computes.Load())
	}
	// A second invocation gets a fresh cache: no cross-run leakage.
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 2 {
		t.Fatalf("second invocation total computes = %d, want 2", computes.Load())
	}

	// A standalone Spec (no runner) just computes.
	spec := &Spec{}
	if v := spec.Shared("k", func() any { return "direct" }); v != "direct" {
		t.Fatalf("standalone Shared = %v", v)
	}
}

func TestRunDeterministicAcrossJobs(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		reg, _ := countingRegistry(4)
		dir := t.TempDir()
		var out bytes.Buffer
		if _, err := Run(Options{Registry: reg, Tag: "test", OutDir: dir, Write: true, Jobs: jobs, Stdout: &out}); err != nil {
			t.Fatal(err)
		}
		// Emission order is registration order regardless of worker count.
		var ids []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "== ") {
				ids = append(ids, strings.Fields(line)[1])
			}
		}
		if got := strings.Join(ids, ","); got != "exp00,exp01,exp02,exp03" {
			t.Fatalf("jobs=%d emission order = %s", jobs, got)
		}
	}
}

func TestSpecObserversUntypedNil(t *testing.T) {
	spec := &Spec{} // Metrics off
	if spec.DESObserver() != nil {
		t.Fatal("DESObserver() with nil Metrics must be an untyped nil interface")
	}
	if spec.PeriodicObserver() != nil {
		t.Fatal("PeriodicObserver() with nil Metrics must be an untyped nil interface")
	}
	spec.Metrics = &Metrics{}
	if spec.DESObserver() == nil || spec.PeriodicObserver() == nil {
		t.Fatal("observers must be non-nil when Metrics is set")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := &Metrics{}
	if m.Snapshot() != nil {
		t.Fatal("all-zero metrics must snapshot to nil")
	}
	m.EventScheduled(1.0, 5)
	m.EventScheduled(2.0, 3) // depth max stays 5
	m.EventFired(2.0, 2)
	m.EventCancelled(3.0, 1)
	m.RoundCompleted(4.0, 7)
	s := m.Snapshot()
	if s == nil || s.EventsScheduled != 2 || s.EventsFired != 1 ||
		s.EventsCancelled != 1 || s.EventQueuePeakDepth != 5 || s.RoundsCompleted != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.DESBackend != des.DefaultBackend().String() {
		t.Fatalf("DESBackend = %q, want %q", s.DESBackend, des.DefaultBackend().String())
	}
	if p := m.progress(); p != "1 rounds, 1 events" {
		t.Fatalf("progress = %q", p)
	}
	// An experiment that never touched the DES kernel records no backend.
	rounds := &Metrics{}
	rounds.RoundCompleted(1.0, 3)
	if s := rounds.Snapshot(); s == nil || s.DESBackend != "" {
		t.Fatalf("rounds-only snapshot = %+v, want empty DESBackend", s)
	}
}

func TestResolvedWorkers(t *testing.T) {
	cases := []struct {
		jobs, experiments, want int
	}{
		{jobs: 4, experiments: 33, want: 4},
		{jobs: 8, experiments: 3, want: 3}, // clamp: only 3 can be busy
		{jobs: 1, experiments: 10, want: 1},
		{jobs: 5, experiments: 0, want: 5}, // degenerate selection: keep the bound
	}
	for _, c := range cases {
		if got := resolvedWorkers(c.jobs, c.experiments); got != c.want {
			t.Errorf("resolvedWorkers(%d, %d) = %d, want %d", c.jobs, c.experiments, got, c.want)
		}
	}
}
