package main

import (
	"bytes"
	"strings"
	"testing"

	ttdc "repro"
)

func TestRunInProcessModes(t *testing.T) {
	for _, mode := range []string{"saturation", "convergecast", "flood"} {
		t.Run(mode, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run([]string{"-gen", "polynomial", "-n", "9", "-D", "2", "-mode", mode, "-frames", "2"},
				strings.NewReader(""), &out, &errOut)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "schedule: n=9") {
				t.Errorf("missing schedule banner:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "active fraction") {
				t.Errorf("missing report body:\n%s", out.String())
			}
			// Timings go to stderr only, one line, kernel named only where
			// it is built apart from the run.
			if strings.Contains(out.String(), "seconds") {
				t.Errorf("phase timings leaked into stdout:\n%s", out.String())
			}
			line := errOut.String()
			want := []string{"ttdcsim: seconds: schedule=", " topology=", " run="}
			if mode == "saturation" {
				want = append(want, " kernel=")
			}
			for _, w := range want {
				if !strings.Contains(line, w) {
					t.Errorf("stderr %q lacks %q", line, w)
				}
			}
			if strings.Count(line, "\n") != 1 {
				t.Errorf("stderr is not one line: %q", line)
			}
		})
	}
}

func TestRunSchedulePipedFromStdin(t *testing.T) {
	s, err := ttdc.TDMA(6)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := ttdc.EncodeSchedule(&wire, s); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-topo", "ring", "-D", "2", "-frames", "2"}, &wire, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "topology: ring") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		args  []string
		stdin string
		want  string
	}{
		{[]string{"-gen", "quantum"}, "", "unknown construction"},
		{[]string{"-gen", "tdma", "-n", "6", "-mode", "osmosis"}, "", "unknown mode"},
		{[]string{"-gen", "tdma", "-n", "6", "-topo", "klein-bottle"}, "", "unknown model"},
		{nil, "not json", ""},
		// Parameters the generators cannot satisfy are errors, not panics.
		{[]string{"-gen", "polynomial", "-n", "25", "-D", "1", "-topo", "random"}, "", "random needs"},
		{[]string{"-gen", "tdma", "-n", "25", "-D", "3"}, "", "nd odd"},
		{[]string{"-gen", "steiner", "-n", "25", "-D", "3"}, "", "D = 2 only"},
		{[]string{"-gen", "polynomial", "-n", "25", "-alphaT", "3"}, "", "set both"},
		{[]string{"-gen", "polynomial", "-n", "9000", "-topo", "geometric"}, "", "dense limit"},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		err := run(tc.args, strings.NewReader(tc.stdin), &out, &errOut)
		if err == nil {
			t.Errorf("run(%v) accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

func TestRunProjective(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-gen", "projective", "-n", "13", "-D", "3", "-topo", "ring", "-frames", "2"},
		strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schedule: n=13 L=13") {
		t.Errorf("unexpected banner:\n%s", out.String())
	}
}
