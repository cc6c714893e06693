//go:build goexperiment.synctest

package main

import "testing/synctest"

// inBubble runs the scenario inside a synctest bubble, where time moves
// only when every goroutine of the run is blocked.
func inBubble(run func()) { synctest.Run(run) }
