//go:build !race

package fit

const raceBuild = false
