package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// The digest check. Every point's result (its rendered figure plus every
// series value bit-exact, or the ping result) is hashed together with its
// exact event count and compared with the digest recorded, for the same
// scenario seed, in digests.json. The recording runs every point
// sequentially (K=1), so a benchmark run at K = nproc also re-proves
// K-invariance. A simulated statistic that changes is a failure, never a
// slowdown.

// scenarioSeeds is how many distinct scenario seeds the benchmark runs;
// digests.json holds one entry per workload, seed and point.
const scenarioSeeds = 16

// scenarioSeed maps the --seed argument onto 1..scenarioSeeds.
func scenarioSeed(seed int64) int64 {
	m := seed % scenarioSeeds
	if m < 0 {
		m += scenarioSeeds
	}
	return m + 1
}

// expect is one recorded point outcome.
type expect struct {
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
}

// digestTable maps workload → scenario seed → point name → outcome.
type digestTable map[string]map[string]map[string]expect

func (t digestTable) lookup(workload string, seed int64) map[string]expect {
	return t[workload][strconv.FormatInt(seed, 10)]
}

func (t digestTable) set(workload string, seed int64, pt string, e expect) {
	if t[workload] == nil {
		t[workload] = map[string]map[string]expect{}
	}
	s := strconv.FormatInt(seed, 10)
	if t[workload][s] == nil {
		t[workload][s] = map[string]expect{}
	}
	t[workload][s][pt] = e
}

//go:embed digests.json
var recordedDigests []byte

func loadDigests(b []byte) (digestTable, error) {
	t := digestTable{}
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("perfbench: reading digests: %w", err)
	}
	return t, nil
}

// writeDigests stores t as indented JSON (map keys sorted).
func writeDigests(path string, t digestTable) error {
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digestOf hashes a point's result text with its exact event count.
func digestOf(text string, events uint64) string {
	h := sha256.New()
	h.Write([]byte(text))
	fmt.Fprintf(h, "\nevents %d\n", events)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
