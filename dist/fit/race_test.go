//go:build race

package fit

// raceBuild is set under the race detector, which slows the fitters'
// float loops about tenfold. They share nothing across goroutines, so
// the differential corpus leaves its largest samples to the plain run.
const raceBuild = true
