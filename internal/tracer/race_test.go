//go:build race

package tracer_test

func init() { raceEnabled = true }
