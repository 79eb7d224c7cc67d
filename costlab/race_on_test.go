//go:build race

package main

// raceEnabled reports whether the race detector instruments this build;
// it slows every code path unevenly, so timing comparisons are skipped.
const raceEnabled = true
