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
	// Lifetime vs guarantees (n=25, D=2, CC2420 energy model, 10 ms slots)
	// αT   αR   frame  awake %  Thr★ attained    Thr^min  est. lifetime (years)  p50 latency (s)
	// ---  ---  -----  -------  ---------------  -------  ---------------------  ---------------
	// 5    20   25     100.0    true             3/25     0.01                   0.3
	// 5    10   50     60.0     true             3/50     0.03                   0.5
	// 3    6    200    36.0     true             3/200    0.05                   2.5
	// 2    4    375    24.0     true             1/125    0.07                   16.5
	// 1    2    1250   12.0     true             2/625    0.14                   18.9
	//
	// Halving the awake caps roughly doubles estimated lifetime; Theorems 4/8
	// say which cap pairs still attain the best achievable average throughput.
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
