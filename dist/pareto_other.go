//go:build !amd64

package dist

// paretoCDFLanes has no lanes off amd64: it stores nothing, and
// paretoLanes stays false.
func paretoCDFLanes(xs []float64, xm, yf float64, yi int64) (done int) { return 0 }
