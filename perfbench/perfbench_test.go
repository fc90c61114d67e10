package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wlcrc/internal/jobs"
	"wlcrc/internal/sim"
)

// TestWalkMatchesEngine holds the layer walk to the engine on a short
// trace for every scheme any workload replays — plane codecs and
// counter schemes — under the plain, the encrypted and the lifetime
// model settings (faults off: the walk does not model repair).
func TestWalkMatchesEngine(t *testing.T) {
	cases := []replaySpec{
		{name: "plain", schemes: allSchemes(), requests: 3000, footprint: 96},
		{name: "encrypted", schemes: allSchemes(), requests: 3000, footprint: 4096, encrypted: true, parallel: true},
		{name: "lifetime", schemes: lifetimeParallel.schemes, requests: 3000, footprint: 96, parallel: true, lifetime: true},
	}
	for _, spec := range cases {
		t.Run(spec.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.wlct")
			if err := writeTrace(path, spec.requests, spec.footprint, 7, spec.encrypted); err != nil {
				t.Fatal(err)
			}
			opts := spec.options(7)
			opts.Faults.Enabled = false
			opts.Workers = 2
			r, err := replayOnce(path, spec.schemes, opts)
			if err != nil {
				t.Fatal(err)
			}
			serial := opts
			serial.Workers, serial.IngestRouters = 1, -1
			for _, tr := range []*tracer{nil, newTracer(len(spec.schemes))} {
				w, _, _, err := walkPass(path, spec.schemes, &serial, r.metrics, tr)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.compare(r.metrics, opts.SampleDisturb); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWalkCompareDetectsDifference makes sure the walk check is not
// vacuous: a single changed cell count fails it.
func TestWalkCompareDetectsDifference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wlct")
	if err := writeTrace(path, 500, 64, 3, false); err != nil {
		t.Fatal(err)
	}
	names := []string{"Baseline", "WLCRC-16"}
	opts := evalSerial.options(3)
	r, err := replayOnce(path, names, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, _, _, err := walkPass(path, names, &opts, r.metrics, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.metrics[1].Energy.UpdatedData++
	var ce *checkError
	if err := w.compare(r.metrics, false); !errors.As(err, &ce) {
		t.Fatalf("compare = %v, want a check failure", err)
	}
}

// TestChecksPassOnSecondSeed runs every workload, untraced and traced,
// on a seed other than the default: all output checks must pass.
func TestChecksPassOnSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{seed: 2, seconds: time.Second, traced: traced, work: t.TempDir(), out: &out}
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestCorruptDigestFailsBenchmark corrupts one golden digest: the
// benchmark must exit non-zero and report correct=false.
func TestCorruptDigestFailsBenchmark(t *testing.T) {
	if !goldenBuild() {
		t.Skip("golden digests apply to the default amd64 build only")
	}
	saved := goldenJSON
	defer func() { goldenJSON = saved }()
	g, err := loadGolden(saved)
	if err != nil {
		t.Fatal(err)
	}
	d := []byte(g["eval-serial"]["WLCRC-16"])
	d[0] ^= 1
	g["eval-serial"]["WLCRC-16"] = string(d)
	if goldenJSON, err = json.Marshal(g); err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "eval-serial", "--seed", "1", "--seconds", "1", "--root", root}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with a corrupted digest\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct {
		t.Fatal("correct=true with a corrupted digest")
	}
	if !strings.Contains(stderr.String(), "digest") {
		t.Fatalf("stderr does not name the digest: %s", stderr.String())
	}
}

// TestDecodeErrorsFail: a nonzero DecodeErrors in a replay's or a
// job's metrics is a check failure.
func TestDecodeErrorsFail(t *testing.T) {
	ms := []sim.Metrics{{Scheme: "Baseline"}, {Scheme: "WLCRC-16", DecodeErrors: 1}}
	var ce *checkError
	if err := checkDecodeErrors(ms); !errors.As(err, &ce) {
		t.Fatalf("checkDecodeErrors = %v, want a check failure", err)
	}
	ks := serviceSeeds(1)
	refs, err := directReplays(ks[:1])
	if err != nil {
		t.Fatal(err)
	}
	var got []sim.Metrics
	for _, b := range refs[ks[0]] {
		var m sim.Metrics
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	s := jobSample{k: ks[0]}
	s.status.State = jobs.StateDone
	s.status.Results = []jobs.Result{{Workload: "gcc", Metrics: got}}
	if failed, err := checkJob(s, refs); failed || err != nil {
		t.Fatalf("unchanged job: failed %v, err %v", failed, err)
	}
	got[1].DecodeErrors = 1
	if _, err := checkJob(s, refs); !errors.As(err, &ce) {
		t.Fatalf("checkJob = %v, want a check failure", err)
	}
}

// TestBadArgumentsFail: an unknown workload or a bad flag exits
// non-zero without printing a result.
func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "eval-serial", "--seconds", "0"},
		{"--workload", "eval-serial", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "--root", t.TempDir()), &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestSchemeKey(t *testing.T) {
	for in, want := range map[string]string{
		"COC+4cosets":   "COC_4cosets",
		"Enc(WLCRC-16)": "Enc_WLCRC-16",
		"WLCRC-16":      "WLCRC-16",
	} {
		if got := schemeKey(in); got != want {
			t.Errorf("schemeKey(%q) = %q, want %q", in, got, want)
		}
	}
}
