//go:build race

package manifest

// The race detector makes sync.Pool drop a share of what is put back, so
// an allocation count that relies on a pool means nothing under it.
func init() { underRace = true }
