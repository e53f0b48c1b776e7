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
	// deployment: 25 sensors, 28 links, eccentricity(0) = 6 hops
	//
	// Dissemination from node 0 (equal slot budgets)
	// protocol                covered  completion slot  analytic bound (slots)  awake %  energy (J)
	// ----------------------  -------  ---------------  ----------------------  -------  ----------
	// TT non-sleeping         25/25    22               175                     91       0.293
	// TT duty (4,8)           25/25    134              1050                    41       0.766
	// slotted ALOHA p=0.2     25/25    17               -                       100      0.252
	// duty-ALOHA tx=.1 rx=.3  25/25    125              -                       39       0.684
	//
	// The schedule-driven floods finish within their analytic bound on every
	// topology of the class; the duty-cycled one does so with most radios asleep.
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
