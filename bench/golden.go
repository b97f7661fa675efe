package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime"

	"repro/nocsim"
)

// golden.json maps "<goarch>/<workload>/<seed>" to the digest of that
// workload's pass. Floating-point results are only promised bit-identical
// on one architecture (others may fuse multiply-adds), hence the arch in
// the key; a seed or arch without an entry is checked on pass-to-pass
// determinism alone.
//
//go:embed golden.json
var goldenJSON []byte

type goldenSet map[string]string

func loadGolden() (goldenSet, error) {
	g := goldenSet{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", runtime.GOARCH, workload, seed)
}

// goldenSeeds are the seeds golden.json pins.
var goldenSeeds = []int64{1, 2}

// goldenFile finds golden.json's source file from the root of the
// repository or from bench/ itself.
func goldenFile() (string, error) {
	for _, p := range []string{"bench/golden.json", "golden.json"} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("golden.json not found: run from the repository root or from bench/")
}

// digest accumulates a pass's outputs: every point's Metrics as JSON and
// every byte of formatted table or exported journal.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) metrics(m nocsim.Metrics) {
	data, err := json.Marshal(m)
	if err != nil { // a NaN or Inf metric: JSON refuses it, %v does not
		data = fmt.Appendf(nil, "%+v", m)
	}
	d.h.Write(data)
}

func (d digest) bytes(b []byte) { d.h.Write(b) }

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
