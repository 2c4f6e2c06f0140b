//go:build race

package main

// The race detector slows every goroutine several-fold, enough for the
// open-loop generator to miss its lateness limit; the tests then accept a
// run that is invalid for that reason alone.
func init() { raceDetector = true }
