package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Example runs the program end to end and pins its output.
func Example() {
	fmt.Print(trimmedOutput(main))
	// Output:
	// schedules: TT duty cycling L=150 (45% awake) vs coloring TDMA L=6 (100% awake)
	//
	// Links starved per mobility step (saturation, 1 frame each)
	// step  edges  TT starved  TT delivery %  coloring starved  coloring delivery %
	// ----  -----  ----------  -------------  ----------------  -------------------
	// 0     29     0           100            0                 100
	// 1     27     0           100            6                 89
	// 2     27     0           100            6                 89
	// 3     25     0           100            8                 84
	// 4     28     0           100            14                75
	// 5     24     0           100            12                75
	// 6     25     0           100            15                70
	// 7     24     0           100            15                69
	// 8     24     0           100            14                71
	//
	// The TT schedule guarantees a collision-free slot per link per frame in EVERY
	// degree-<=3 topology, so mobility cannot starve it. The coloring schedule only
	// promised that for the deployment it saw at build time.
}

// trimmedOutput runs fn with stdout captured and returns what it printed
// with trailing blanks removed from each line: table rows pad their last
// column, and an Output comment cannot hold trailing spaces.
func trimmedOutput(fn func()) string {
	r, w, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	os.Stdout = stdout
	w.Close()
	lines := strings.Split(<-done, "\n")
	for i, line := range lines {
		lines[i] = strings.TrimRight(line, " ")
	}
	return strings.Join(lines, "\n")
}
