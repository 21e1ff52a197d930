package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec runs the CLI entry point with args and returns exit code and
// captured streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := exec(t, "testdata/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed findings: %q", stdout)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, stdout, stderr := exec(t, "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "errclose") || !strings.Contains(stdout, "dirty.go") {
		t.Errorf("findings output missing analyzer or file: %q", stdout)
	}
	if !strings.Contains(stderr, "1 finding") {
		t.Errorf("stderr missing findings summary: %q", stderr)
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	code, _, stderr := exec(t, "testdata/broken")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "lmvet:") {
		t.Errorf("stderr missing error report: %q", stderr)
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	code, _, _ := exec(t, "testdata/no-such-dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	code, _, _ := exec(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestIgnoreDirectiveSuppressesFinding(t *testing.T) {
	code, stdout, stderr := exec(t, "testdata/ignored")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 with inline suppression; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("suppressed run printed findings: %q", stdout)
	}
}

func TestMalformedIgnoreDirectiveReported(t *testing.T) {
	code, stdout, _ := exec(t, "testdata/badignore")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "malformed lmvet:ignore directive") {
		t.Errorf("missing malformed-directive diagnostic: %q", stdout)
	}
	// A directive without a reason suppresses nothing: the underlying
	// errclose finding must still be printed.
	if !strings.Contains(stdout, "errclose") {
		t.Errorf("errclose finding was wrongly suppressed: %q", stdout)
	}
}

// sarifLog mirrors the slice of SARIF 2.1.0 the tests assert on.
type sarifLog struct {
	Version string `json:"version"`
	Schema  string `json:"$schema"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID string `json:"id"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID    string `json:"ruleId"`
			Level     string `json:"level"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI       string `json:"uri"`
						URIBaseID string `json:"uriBaseId"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine int `json:"startLine"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

func TestSARIFShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "lmvet.sarif")
	code, _, stderr := exec(t, "-sarif", path, "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (SARIF output does not change exit codes); stderr=%q", code, stderr)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("SARIF report not written (parent dirs should be created): %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatalf("SARIF output unparsable: %v\n%s", err, body)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version = %q schema = %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "lmvet" {
		t.Errorf("driver name = %q, want lmvet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) == 0 {
		t.Error("driver rules empty; every analyzer should be listed")
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "errclose" || res.Level != "error" {
		t.Errorf("ruleId = %q level = %q, want errclose/error", res.RuleID, res.Level)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1", len(res.Locations))
	}
	loc := res.Locations[0].PhysicalLocation
	if !strings.HasSuffix(loc.ArtifactLocation.URI, "dirty.go") {
		t.Errorf("uri = %q, want suffix dirty.go", loc.ArtifactLocation.URI)
	}
	if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("uriBaseId = %q, want %%SRCROOT%%", loc.ArtifactLocation.URIBaseID)
	}
	if loc.Region.StartLine == 0 {
		t.Error("region startLine not populated")
	}
}

func TestSARIFStdout(t *testing.T) {
	code, stdout, _ := exec(t, "-sarif", "-", "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif=- stdout is not pure SARIF: %v\n%s", err, stdout)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Errorf("unexpected SARIF contents: %s", stdout)
	}
}

func TestSARIFUnwritablePathExitsTwo(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("a plain file, not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := exec(t, "-sarif", filepath.Join(blocker, "out.sarif"), "testdata/dirty")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "lmvet:") {
		t.Errorf("stderr missing error report: %q", stderr)
	}
}

func TestUnknownAnalyzerFlagExitsTwo(t *testing.T) {
	// Every analyzer always runs: there is no per-analyzer switch, so
	// one written as a flag fails flag parsing rather than silently
	// disabling nothing.
	code, _, stderr := exec(t, "-errclose=false", "testdata/dirty")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "errclose") {
		t.Errorf("stderr does not name the unknown flag: %q", stderr)
	}
}
