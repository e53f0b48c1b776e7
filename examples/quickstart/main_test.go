package main

// Example runs the program end to end and pins its output.
func Example() {
	main()
	// Output:
	// base schedule: frame length 25, everyone awake (active fraction 1.00)
	// duty-cycled:   frame length 200, active fraction 0.32
	// verified: topology-transparent for N(25, 2)
	// average worst-case throughput: 21/920 (Theorem 4 optimum for these caps: 21/920)
	// minimum worst-case throughput: 3/200 per frame slot
	// simulated on a 2-regular topology: every link delivered >= 3 packets/frame, 32.0% of node-slots awake
}
