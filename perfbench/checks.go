package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"

	"wlcrc/internal/sim"
)

// goldenJSON holds, per workload and scheme, the digest of the
// scheme's Metrics JSON for the default seed. The digests pin the
// simulated statistics (energy, cells, disturbance, fault counts) so a
// change that alters results fails the benchmark instead of producing a
// faster number for a different computation.
//
//go:embed golden.json
var goldenJSON []byte

// metricsJSON encodes each scheme's metrics; byte equality of two
// encodings is the benchmark's notion of "the same result".
func metricsJSON(ms []sim.Metrics) ([][]byte, error) {
	out := make([][]byte, len(ms))
	for i, m := range ms {
		b, err := json.Marshal(m)
		if err != nil {
			return nil, fmt.Errorf("encode %s metrics: %w", m.Scheme, err)
		}
		out[i] = b
	}
	return out, nil
}

// digest is the first 16 bytes of the SHA-256 of one scheme's metrics
// JSON, in hex.
func digest(metricsJSON []byte) string {
	sum := sha256.Sum256(metricsJSON)
	return hex.EncodeToString(sum[:16])
}

// checkDecodeErrors fails when any scheme failed to read back a write.
func checkDecodeErrors(ms []sim.Metrics) error {
	for _, m := range ms {
		if m.DecodeErrors != 0 {
			return checkFailed("%s: %d decode errors", m.Scheme, m.DecodeErrors)
		}
	}
	return nil
}

// checkSame fails unless got and want are byte-equal per scheme.
func checkSame(what string, got, want [][]byte, names []string) error {
	if len(got) != len(want) {
		return checkFailed("%s: %d schemes, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return checkFailed("%s: %s metrics differ from the reference replay", what, names[i])
		}
	}
	return nil
}

// goldenBuild reports whether this binary computes floats the way the
// build that recorded golden.json did: amd64 at the default GOAMD64
// level (higher levels may fuse multiply-adds and change the last bits
// of energy sums).
func goldenBuild() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "GOAMD64" {
			return s.Value == "v1"
		}
	}
	return true
}

// loadGolden parses golden.json: workload -> scheme -> digest.
func loadGolden(data []byte) (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares per-scheme digests with the recorded ones. It
// applies only to the default seed on the default build; checked
// reports whether it applied.
func checkGolden(golden map[string]map[string]string, workload string, seed uint64, names []string, enc [][]byte) (checked bool, err error) {
	if seed != defaultSeed || !goldenBuild() {
		return false, nil
	}
	want, ok := golden[workload]
	if !ok {
		return false, checkFailed("golden.json has no digests for %s", workload)
	}
	if len(want) != len(names) {
		return false, checkFailed("golden.json has %d %s digests, the workload has %d schemes", len(want), workload, len(names))
	}
	for i, n := range names {
		if d := digest(enc[i]); d != want[n] {
			return false, checkFailed("%s %s: digest %s, golden %s", workload, n, d, want[n])
		}
	}
	return true, nil
}

// checkLifetime pins the fault lifecycle the lifetime workload is meant
// to exercise: every scheme detects stuck cells, ECC-corrects writes and
// retires lines; 6cosets repairs some writes by stuck-aware re-encoding;
// no write is uncorrectable.
func checkLifetime(ms []sim.Metrics) error {
	for _, m := range ms {
		f := m.Faults
		if f.Detected == 0 || f.CorrectedWrites == 0 || f.RetiredLines == 0 {
			return checkFailed("%s: detected %d, ECC-corrected %d, retired %d; want all > 0",
				m.Scheme, f.Detected, f.CorrectedWrites, f.RetiredLines)
		}
		if f.Uncorrectable != 0 {
			return checkFailed("%s: %d uncorrectable writes", m.Scheme, f.Uncorrectable)
		}
		if m.Scheme == "6cosets" && f.RetriedOK == 0 {
			return checkFailed("6cosets: no stuck-aware re-encode succeeded")
		}
	}
	return nil
}
