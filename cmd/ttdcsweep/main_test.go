package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestSerialVsParallelIdentical is the sweep's determinism acceptance
// check: the suite on one engine worker and on eight must print
// byte-identical tables, in text and in CSV.
func TestSerialVsParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite comparison")
	}
	ids := experiments.IDs()
	for _, csv := range []bool{false, true} {
		var serial, parallel bytes.Buffer
		if failed, err := runEngine(ids, csv, 1, "", &serial, os.Stderr); err != nil || len(failed) > 0 {
			t.Fatalf("csv=%v workers=1: failed %v, err %v", csv, failed, err)
		}
		if failed, err := runEngine(ids, csv, 8, "", &parallel, os.Stderr); err != nil || len(failed) > 0 {
			t.Fatalf("csv=%v workers=8: failed %v, err %v", csv, failed, err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("csv=%v: sweep output at 8 workers differs from 1 worker", csv)
		}
	}
	var out bytes.Buffer
	if err := run(nil, &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ttdcsweep: 17/17 PASS") {
		t.Errorf("missing summary line; got tail %q", tail(out.String()))
	}
}

func TestSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E5"}, &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== E5:") || !strings.Contains(out.String(), "[PASS] E5") {
		t.Errorf("unexpected output %q", tail(out.String()))
	}
	if !strings.Contains(out.String(), "ttdcsweep: 1/1 PASS") {
		t.Errorf("missing summary; got tail %q", tail(out.String()))
	}
}

// TestUnknownExperimentContinuesToSummary: an erroring experiment must not
// abort the run pre-summary; it must surface in the final error.
func TestUnknownExperimentContinuesToSummary(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-exp", "E99"}, &out, &errOut)
	if err == nil {
		t.Fatal("unknown experiment reported success")
	}
	if !strings.Contains(err.Error(), "1/1 experiments failed") || !strings.Contains(err.Error(), "E99") {
		t.Errorf("summary error = %v", err)
	}
}

// TestJournalResume runs two experiments with a journal, then reruns: the
// second run must replay from the journal (same output) without
// re-executing.
func TestJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	var first, second bytes.Buffer
	if err := run([]string{"-exp", "E5", "-journal", journal}, &first, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "E5", "-journal", journal}, &second, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("journal replay output differs from original run")
	}
}

// TestJournalRefusesOtherFormat: a journal of text blocks must not be
// replayed as CSV (or the reverse); the rerun fails as a wrong journal.
func TestJournalRefusesOtherFormat(t *testing.T) {
	for _, formats := range [][2][]string{{nil, {"-csv"}}, {{"-csv"}, nil}} {
		journal := filepath.Join(t.TempDir(), "sweep.jsonl")
		base := []string{"-exp", "E5", "-journal", journal}
		var first, rerun bytes.Buffer
		if err := run(append(base, formats[0]...), &first, os.Stderr); err != nil {
			t.Fatal(err)
		}
		err := run(append(base, formats[1]...), &rerun, os.Stderr)
		if err == nil || !strings.Contains(err.Error(), "wrong journal") {
			t.Errorf("journal %v rerun as %v: err = %v, want a wrong-journal error; output %q",
				formats[0], formats[1], err, tail(rerun.String()))
		}
	}
}

func tail(s string) string {
	if len(s) > 200 {
		return s[len(s)-200:]
	}
	return s
}
