// Command ttdcgen constructs topology-transparent schedules and writes them
// as JSON (for piping into ttdcanalyze/ttdcsim) or human-readable text.
//
// Usage:
//
//	ttdcgen -n 25 -D 2 -base polynomial                  # non-sleeping schedule
//	ttdcgen -n 25 -D 2 -base steiner -alphaT 3 -alphaR 5 # duty-cycled
//	ttdcgen -n 25 -D 2 -base tdma -format text
//
// With -alphaT/-alphaR set, the paper's Construct algorithm converts the
// base schedule into an (αT, αR)-schedule; otherwise the base non-sleeping
// schedule is emitted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	ttdc "repro"
	"repro/internal/schedcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 25, "maximum number of nodes in the class N(n, D)")
		d        = fs.Int("D", 2, "maximum node degree in the class N(n, D)")
		base     = fs.String("base", "polynomial", "base construction: tdma | polynomial | steiner | projective | search")
		frameLen = fs.Int("L", 0, "frame length for -base search (0 = n)")
		seed     = fs.Uint64("seed", 1, "seed for -base search")
		alphaT   = fs.Int("alphaT", 0, "max transmitters per slot (0 = keep non-sleeping)")
		alphaR   = fs.Int("alphaR", 0, "max receivers per slot (0 = keep non-sleeping)")
		balanced = fs.Bool("balanced", false, "use the balanced-energy division (§7)")
		format   = fs.String("format", "json", "output format: json | text | grid")
		verify   = fs.Bool("verify", false, "exhaustively verify topology transparency before emitting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	k := schedcache.Key{N: *n, D: *d, AlphaT: *alphaT, AlphaR: *alphaR}
	if *balanced {
		k.Strategy = ttdc.Balanced
	}
	s, err := build(*base, k, *frameLen, *seed)
	if err != nil {
		return err
	}
	if *verify {
		if w := ttdc.CheckRequirement3(s, *d); w != nil {
			return fmt.Errorf("schedule failed verification: %v", w)
		}
		fmt.Fprintf(stderr, "verified: topology-transparent for N(%d, %d)\n", *n, *d)
	}
	switch *format {
	case "json":
		return ttdc.EncodeSchedule(stdout, s)
	case "text":
		fmt.Fprintln(stdout, s.String())
		fmt.Fprintf(stdout, "frame length %d, active fraction %.3f\n", s.L(), s.ActiveFraction())
	case "grid":
		fmt.Fprint(stdout, s.Grid(80))
		fmt.Fprintf(stdout, "frame length %d, active fraction %.3f\n", s.L(), s.ActiveFraction())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

// build constructs k's schedule from the named base under the trusted
// local budget. search, a randomized cover-free family of frame length
// frameLen (0 = n), is built here; every other name goes to the shared
// builder.
func build(base string, k schedcache.Key, frameLen int, seed uint64) (*ttdc.Schedule, error) {
	lim := schedcache.TrustedLimits
	if base != "search" {
		return lim.Build(base, k)
	}
	if err := lim.Validate(k); err != nil {
		return nil, err
	}
	if frameLen == 0 {
		frameLen = k.N
	}
	ns, err := ttdc.SearchSchedule(k.N, k.D, frameLen, seed)
	if err != nil {
		return nil, err
	}
	return lim.DutyCycle(ns, k)
}
