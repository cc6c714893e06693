//go:build !goexperiment.synctest

package main

// inBubble runs the scenario on the real clock; GOEXPERIMENT=synctest
// builds the bubble form.
func inBubble(run func()) { run() }
