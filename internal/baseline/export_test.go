package baseline

// newProbingVecCache returns a VecCache whose hits on exclusive lines probe
// the remote caches anyway: the reference the exclusive-bit skip is checked
// against.
func newProbingVecCache(cfg VecConfig) *VecCache {
	d := NewVecCache(cfg)
	d.probeExclusive = true
	return d
}
