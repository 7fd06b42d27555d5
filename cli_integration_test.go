package blockchaindb_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the cmd binaries into the test's temp dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if exitErr, ok := err.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("run %s: %v\n%s", bin, err, buf.String())
	}
	return buf.String(), code
}

// TestCLIPipeline drives the bcdbgen → dcsat pipeline and the
// experiments and bcnode tools end to end.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	bcdbgen := buildTool(t, dir, "bcdbgen")
	dcsat := buildTool(t, dir, "dcsat")
	experiments := buildTool(t, dir, "experiments")
	bcnode := buildTool(t, dir, "bcnode")

	// Generate a small dataset.
	data := filepath.Join(dir, "ds.json")
	out, code := run(t, bcdbgen, "-out", data,
		"-blocks", "10", "-tx-per-block", "6", "-users", "40",
		"-pending-blocks", "3", "-pending-tx-per-block", "6",
		"-contradictions", "3", "-seed", "7")
	if code != 0 {
		t.Fatalf("bcdbgen exit %d: %s", code, out)
	}
	if !strings.Contains(out, "state:") || !strings.Contains(out, "plants:") {
		t.Errorf("bcdbgen summary missing: %s", out)
	}

	// Satisfied constraint: exit 0.
	out, code = run(t, dcsat, "-data", data, "-q", "q() :- TxOut(n, s, 'NoSuchPk', a)", "-v")
	if code != 0 {
		t.Fatalf("dcsat satisfied exit %d: %s", code, out)
	}
	if !strings.Contains(out, "SATISFIED") || !strings.Contains(out, "complexity:") {
		t.Errorf("dcsat satisfied output: %s", out)
	}

	// Violated constraint (the planted simple pk): exit 1 + witness.
	out, code = run(t, dcsat, "-data", data,
		"-q", "q() :- TxOut(n, s, 'PlantSimplePk', a)", "-estimate", "200", "-p", "0.5")
	if code != 1 {
		t.Fatalf("dcsat violated exit %d: %s", code, out)
	}
	if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "witness:") ||
		!strings.Contains(out, "violation probability") {
		t.Errorf("dcsat violated output: %s", out)
	}

	// Answer mode (head variables): certain and possible answers, and
	// the undecided exit when the timeout expires first.
	answers := "q(pk) :- TxOut(n, s, pk, a), a > 400"
	out, code = run(t, dcsat, "-data", data, "-q", answers)
	if code != 0 {
		t.Fatalf("dcsat answer mode exit %d: %s", code, out)
	}
	if !strings.Contains(out, "certain answers") || !strings.Contains(out, "possible answers") {
		t.Errorf("dcsat answer mode output: %s", out)
	}
	if out, code = run(t, dcsat, "-data", data, "-q", answers, "-timeout", "1ns"); code != 3 {
		t.Errorf("dcsat answer mode -timeout 1ns exit %d, want 3 (undecided): %s", code, out)
	}

	// Algorithm selection and error paths.
	out, code = run(t, dcsat, "-data", data, "-q", "q() :- TxOut(n, s, 'NoSuchPk', a)", "-algo", "naive")
	if code != 0 {
		t.Fatalf("dcsat -algo naive exit %d: %s", code, out)
	}
	if _, code = run(t, dcsat, "-data", data, "-q", "q() :- TxOut(n, s, 'NoSuchPk', a)", "-algo", "bogus"); code != 2 {
		t.Error("unknown algorithm should exit 2")
	}
	if _, code = run(t, dcsat, "-data", data, "-q", "q("); code != 2 {
		t.Error("bad query should exit 2")
	}
	if _, code = run(t, dcsat, "-data", filepath.Join(dir, "missing.json"), "-q", "q() :- R(x)"); code != 2 {
		t.Error("missing dataset should exit 2")
	}

	// Experiments: one quick experiment with CSV export.
	csvDir := filepath.Join(dir, "csv")
	out, code = run(t, experiments, "-exp", "table1", "-scale", "0.1", "-repeats", "1", "-csv", csvDir)
	if code != 0 {
		t.Fatalf("experiments exit %d: %s", code, out)
	}
	if !strings.Contains(out, "== table1:") {
		t.Errorf("experiments output: %s", out)
	}
	if _, code = run(t, experiments, "-exp", "nope"); code == 0 {
		t.Error("unknown experiment should fail")
	}

	// bcnode: the double-payment story plays out.
	out, code = run(t, bcnode, "-blocks", "2")
	if code != 0 {
		t.Fatalf("bcnode exit %d: %s", code, out)
	}
	for _, want := range []string{"careless reissue pending", "VIOLATED", "dry run", "satisfied"} {
		if !strings.Contains(out, want) {
			t.Errorf("bcnode output missing %q:\n%s", want, out)
		}
	}
}

// TestExamplesRun executes every example main to completion.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples in -short mode")
	}
	for _, ex := range []string{"quickstart", "exchange", "audit", "mempoolwatch"} {
		ex := ex
		t.Run(ex, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+ex)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", ex, err, out)
			}
			if len(out) == 0 {
				t.Errorf("%s produced no output", ex)
			}
		})
	}
}
