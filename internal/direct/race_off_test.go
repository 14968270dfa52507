//go:build !race

package direct

const raceEnabled = false
