//go:build !race

package core

// raceEnabled reports a build with the race detector, which changes the
// runtime's allocation behaviour (sync.Pool drops Puts at random).
const raceEnabled = false
