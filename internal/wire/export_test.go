package wire

// SetHostLittleEndian makes the package act as on a host whose float64s
// are (le) or are not in the wire's byte order, so that the copying path
// of a big-endian host runs on any host; the returned func puts the real
// order back.
func SetHostLittleEndian(le bool) (restore func()) {
	old := hostLittleEndian
	hostLittleEndian = le
	return func() { hostLittleEndian = old }
}
