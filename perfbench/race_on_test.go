//go:build race

package main

// raceEnabled: the race detector slows the server several-fold, so the
// smoke run's rate objective cannot hold under it.
const raceEnabled = true
