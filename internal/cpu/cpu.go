// Package cpu reads, once at start-up, the CPUID and XCR0 words that the
// repository's assembly kernels are chosen by (internal/fft's transform
// kernels and dist's Pareto CDF lanes), and judges them with pure feature
// checks. Only amd64 has the words; elsewhere the package is empty and
// every kernel runs its portable Go.
package cpu
