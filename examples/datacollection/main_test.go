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
	// deployment: 25 sensors, 28 links, max degree 3 (class N(25, 3))
	//
	// Poisson convergecast to node 0 (rate 0.001 pkt/slot/sensor)
	// schedule      frame  awake %  delivery %  p50 latency  p95 latency  mJ/reading
	// ------------  -----  -------  ----------  -----------  -----------  ----------
	// non-sleeping  25     100.0    100.0       23           41           544.32
	// duty (5,10)   50     60.0     100.0       47           84           273.42
	// duty (3,6)    200    36.0     90.6        1239         3297         182.07
	// duty (2,4)    375    24.0     50.1        6183         7812         220.51
	//
	// Every configuration keeps delivering — the schedules are topology-transparent,
	// so no link can starve whatever the deployment looks like. Tighter (αT, αR)
	// caps cut the energy each reading costs, at the price of latency.
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
